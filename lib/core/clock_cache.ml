(* A hash table with an optional capacity bound enforced by the clock
   (second-chance) policy: entries live in a circular ring; a hit sets
   the entry's reference bit; on insertion into a full cache the clock
   hand sweeps the ring, clearing reference bits until it finds an
   unreferenced victim to evict.  One sweep visits at most 2x capacity
   slots (the first pass can only clear bits), so insertion is O(1)
   amortized.  Unbounded when no capacity is given.

   Keys are the explorers' flat [compact_key] arrays, hashed with an
   explicit full-array fold: the polymorphic [Hashtbl.hash] samples
   only ~10 elements, so keys differing past the tenth would share a
   bucket chain (equality stays exact either way, but every such
   lookup would degrade to a scan).  The fold is one FNV
   multiply-xor per element and a single [mix64] at the end.  Each
   multiply-xor is invertible, so two keys of one length that differ
   in one element fold to different words, and the final mix spreads
   that difference over the bucket index bits.  An unbounded
   [replace] is one [Tbl.replace]; a bounded one is a lookup and, on a
   miss, a [Tbl.add] — never a second search of the bucket. *)

module Tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec eq i = i >= la || (a.(i) = b.(i) && eq (i + 1)) in
    eq 0

  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x100000001b3) lxor Array.unsafe_get a i
    done;
    Slx_sim.Runtime.mix64 !h land max_int
end)

type 'v entry = {
  key : int array;
  mutable value : 'v;
  mutable referenced : bool;
}

type 'v t = {
  tbl : 'v entry Tbl.t;
  ring : 'v entry option array;  (* [||] when unbounded *)
  mutable hand : int;
  mutable size : int;
  mutable evictions : int;
  sink : Slx_obs.Telemetry.sink;  (* eviction telemetry; null by default *)
}

let create ?capacity ?(sink = Slx_obs.Telemetry.null) () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Clock_cache.create: capacity < 1"
  | _ -> ());
  {
    tbl = Tbl.create 512;
    ring = (match capacity with None -> [||] | Some c -> Array.make c None);
    hand = 0;
    size = 0;
    evictions = 0;
    sink;
  }

let length t = Tbl.length t.tbl

let evictions t = t.evictions

let capacity t =
  match Array.length t.ring with 0 -> None | c -> Some c

let find_opt t k =
  match Tbl.find_opt t.tbl k with
  | None -> None
  | Some e ->
      e.referenced <- true;
      Some e.value

(* The next free ring slot, evicting a victim if the ring is full. *)
let claim_slot t =
  let cap = Array.length t.ring in
  if t.size < cap then
    (* Slots fill in order and an eviction's slot is refilled by the
       same insertion, so below capacity slot [size] is always free. *)
    t.size
  else begin
    let rec sweep () =
      match t.ring.(t.hand) with
      | Some e when e.referenced ->
          e.referenced <- false;
          t.hand <- (t.hand + 1) mod cap;
          sweep ()
      | Some e ->
          let slot = t.hand in
          Tbl.remove t.tbl e.key;
          t.ring.(slot) <- None;
          t.size <- t.size - 1;
          t.evictions <- t.evictions + 1;
          Slx_obs.Telemetry.emit t.sink Slx_obs.Telemetry.Cache_evict
            t.evictions 0;
          t.hand <- (slot + 1) mod cap;
          slot
      | None ->
          t.hand <- (t.hand + 1) mod cap;
          sweep ()
    in
    sweep ()
  end

let replace t k v =
  if Array.length t.ring = 0 then
    (* Unbounded: no ring, and no reference bit anyone reads, so a
       fresh entry may stand in for an old one. *)
    Tbl.replace t.tbl k { key = k; value = v; referenced = false }
  else
    match Tbl.find_opt t.tbl k with
    | Some e -> e.value <- v
    | None ->
        let slot = claim_slot t in
        let e = { key = k; value = v; referenced = false } in
        t.ring.(slot) <- Some e;
        t.size <- t.size + 1;
        Tbl.add t.tbl k e
