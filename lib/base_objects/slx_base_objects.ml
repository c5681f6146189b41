(* Every constructor registers a state reader with the fingerprint
   registry currently in effect (a no-op outside the explorer), so the
   exploration engine can digest the shared state of a configuration.
   Registration also yields the object's footprint id.  Every
   primitive is one [Runtime.atomic] step that routes each physical
   cell access through [load]/[store], which report it with
   [Runtime.touch] under the owning object's id: what a step touched
   is its observed footprint, from which the explorer's partial-order
   reduction recognizes commuting steps.  See Runtime's "Configuration
   digests" and "Access footprints" sections. *)
module Runtime = Slx_sim.Runtime

let fingerprinted state read =
  Runtime.register_object (fun () -> Runtime.hash_value (read state))

(* Reported ref-cell accesses.  [obj] is the id of the base object
   owning the cell. *)
let load ~obj st =
  Runtime.touch ~obj ~write:false;
  !st

let store ~obj st v =
  Runtime.touch ~obj ~write:true;
  st := v

module Register = struct
  type 'a t = { st : 'a ref; obj : int }

  let make v =
    let st = ref v in
    { st; obj = fingerprinted st ( ! ) }

  let read r = Runtime.atomic (fun () -> load ~obj:r.obj r.st)
  let write r v = Runtime.atomic (fun () -> store ~obj:r.obj r.st v)
end

module Cas = struct
  type 'a t = { st : 'a ref; obj : int }

  let make v =
    let st = ref v in
    { st; obj = fingerprinted st ( ! ) }

  let read r = Runtime.atomic (fun () -> load ~obj:r.obj r.st)

  let compare_and_swap r ~expected ~desired =
    Runtime.atomic (fun () ->
        if load ~obj:r.obj r.st = expected then begin
          store ~obj:r.obj r.st desired;
          true
        end
        else false)
end

module Test_and_set = struct
  type t = { st : bool ref; obj : int }

  let make () =
    let st = ref false in
    { st; obj = fingerprinted st ( ! ) }

  let test_and_set r =
    Runtime.atomic (fun () ->
        if load ~obj:r.obj r.st then false
        else begin
          store ~obj:r.obj r.st true;
          true
        end)

  let reset r = Runtime.atomic (fun () -> store ~obj:r.obj r.st false)

  let read r = Runtime.atomic (fun () -> load ~obj:r.obj r.st)
end

module Fetch_and_add = struct
  type t = { st : int ref; obj : int }

  let make v =
    let st = ref v in
    { st; obj = fingerprinted st ( ! ) }

  let fetch_and_add r d =
    Runtime.atomic (fun () ->
        let old = load ~obj:r.obj r.st in
        store ~obj:r.obj r.st (old + d);
        old)

  let read r = Runtime.atomic (fun () -> load ~obj:r.obj r.st)
end

module Queue = struct
  type 'a t = { st : 'a list ref; obj : int }  (* front of the queue first *)

  let make items =
    let st = ref items in
    { st; obj = fingerprinted st ( ! ) }

  let enqueue q v =
    Runtime.atomic (fun () ->
        store ~obj:q.obj q.st (load ~obj:q.obj q.st @ [ v ]))

  let dequeue q =
    Runtime.atomic (fun () ->
        match load ~obj:q.obj q.st with
        | [] -> None
        | x :: rest ->
            store ~obj:q.obj q.st rest;
            Some x)
end

module Snapshot = struct
  type 'a t = { st : 'a array; obj : int }

  let make ~n init =
    if n < 1 then invalid_arg "Snapshot.make: n must be positive";
    let st = Array.make n init in
    { st; obj = fingerprinted st (fun s -> Array.to_list s) }

  (* Object-granularity touches: updates of different segments touch
     the same object and are therefore not commuted by the explorer —
     sound, merely conservative. *)
  let update s p v =
    if p < 1 || p > Array.length s.st then invalid_arg "Snapshot.update";
    Runtime.atomic (fun () ->
        Runtime.touch ~obj:s.obj ~write:true;
        s.st.(p - 1) <- v)

  let scan s =
    Runtime.atomic (fun () ->
        Runtime.touch ~obj:s.obj ~write:false;
        Array.copy s.st)
end
