(* Hash-consing tables for compact configuration encodings.

   The exploration engines replace deep structural values (histories,
   fingerprints, suffix keys) with dense small-int ids: equal values
   get equal ids and distinct values distinct ids, so the transposition
   caches hash and compare single ints instead of re-traversing the
   value on every visit.  Two flavors:

   - ['a t]: a generic interner over structural equality (used for
     history events and abstract cell encodings, which are small);
   - [Ints]: a specialized interner over int arrays with an explicit
     full-array FNV/mix fold — the polymorphic [Hashtbl.hash] samples
     only ~10 nodes, which on a key array would reintroduce exactly
     the truncation bug the compact encodings exist to kill.

   Interners are not thread-safe: each exploration owns its own pools,
   scoped like its transposition cache, so ids never cross
   explorations. *)

type 'a t = { tbl : ('a, int) Hashtbl.t; mutable next : int }

let create ?(initial = 256) () = { tbl = Hashtbl.create initial; next = 0 }

let intern t x =
  match Hashtbl.find_opt t.tbl x with
  | Some id -> id
  | None ->
      let id = t.next in
      t.next <- id + 1;
      Hashtbl.add t.tbl x id;
      id

let count t = t.next

module Ints = struct
  module Tbl = Hashtbl.Make (struct
    type t = int array

    let equal (a : int array) b =
      let la = Array.length a in
      la = Array.length b
      &&
      let rec eq i = i >= la || (a.(i) = b.(i) && eq (i + 1)) in
      eq 0

    (* Full fold over every element — no sampling. *)
    let hash a =
      Array.fold_left
        (fun h v -> Slx_sim.Runtime.mix64 ((h * 0x100000001b3) lxor v))
        0x811c9dc5 a
      land max_int
  end)

  type t = { tbl : int Tbl.t; mutable next : int }

  let create ?(initial = 1024) () = { tbl = Tbl.create initial; next = 0 }

  let intern t a =
    match Tbl.find_opt t.tbl a with
    | Some id -> id
    | None ->
        let id = t.next in
        t.next <- id + 1;
        Tbl.add t.tbl a id;
        id

  let count t = t.next
end
