(* Hash-consing tables for compact configuration encodings.

   The exploration engines replace a cursor's history with a dense
   small-int id: each appended event is interned, then the (previous
   history id, event id) pair, so equal histories get equal ids and
   distinct histories distinct ids, and a transposition key carries
   one int for the whole history instead of re-traversing it on every
   visit.

   Interners are not thread-safe: each exploration owns its own pools,
   so ids never cross explorations. *)

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
