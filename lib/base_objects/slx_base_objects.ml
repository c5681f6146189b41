(* Every constructor registers a state reader with the fingerprint
   registry currently in effect (a no-op outside the explorer), so the
   exploration engine can digest the shared state of a configuration.
   Registration also yields the object's footprint id: every primitive
   declares, via [atomic_access], which object it touches and whether
   it writes, so the explorer's partial-order reduction can recognize
   commuting steps.  See Runtime's "Configuration digests" and
   "Access footprints" sections.

   Primitives route every physical cell access through [load]/[store],
   which report the access to the sanitizer shadow (Runtime.touch, a
   no-op unless a shadow is installed).  The report is attached to the
   cell, not to the declaring wrapper, so a primitive whose declared
   footprint disagrees with what it physically does is caught by the
   race detector rather than trusted. *)
let fingerprinted state read =
  Slx_sim.Runtime.register_object (fun () ->
      Slx_sim.Runtime.hash_value (read state))

let reads ~obj f = Slx_sim.Runtime.atomic_access ~obj ~write:false f
let writes ~obj f = Slx_sim.Runtime.atomic_access ~obj ~write:true f

(* Shadow-reported ref-cell accesses.  [obj] is the id of the base
   object owning the cell. *)
let load ~obj st =
  Slx_sim.Runtime.touch ~obj ~write:false;
  !st

let store ~obj st v =
  Slx_sim.Runtime.touch ~obj ~write:true;
  st := v

module Register = struct
  type 'a t = { st : 'a ref; obj : int }

  let make v =
    let st = ref v in
    { st; obj = fingerprinted st ( ! ) }

  let read r = reads ~obj:r.obj (fun () -> load ~obj:r.obj r.st)
  let write r v = writes ~obj:r.obj (fun () -> store ~obj:r.obj r.st v)
end

module Cas = struct
  type 'a t = { st : 'a ref; obj : int }

  let make v =
    let st = ref v in
    { st; obj = fingerprinted st ( ! ) }

  let read r = reads ~obj:r.obj (fun () -> load ~obj:r.obj r.st)

  let compare_and_swap r ~expected ~desired =
    writes ~obj:r.obj (fun () ->
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
    writes ~obj:r.obj (fun () ->
        if load ~obj:r.obj r.st then false
        else begin
          store ~obj:r.obj r.st true;
          true
        end)

  let reset r = writes ~obj:r.obj (fun () -> store ~obj:r.obj r.st false)

  let read r = reads ~obj:r.obj (fun () -> load ~obj:r.obj r.st)
end

module Fetch_and_add = struct
  type t = { st : int ref; obj : int }

  let make v =
    let st = ref v in
    { st; obj = fingerprinted st ( ! ) }

  let fetch_and_add r d =
    writes ~obj:r.obj (fun () ->
        let old = load ~obj:r.obj r.st in
        store ~obj:r.obj r.st (old + d);
        old)

  let read r = reads ~obj:r.obj (fun () -> load ~obj:r.obj r.st)
end

module Queue = struct
  type 'a t = { st : 'a list ref; obj : int }  (* front of the queue first *)

  let make items =
    let st = ref items in
    { st; obj = fingerprinted st ( ! ) }

  let enqueue q v =
    writes ~obj:q.obj (fun () ->
        store ~obj:q.obj q.st (load ~obj:q.obj q.st @ [ v ]))

  let dequeue q =
    writes ~obj:q.obj (fun () ->
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

  (* Object-granularity footprints: updates of different segments are
     declared on the same object and therefore not commuted by the
     explorer — sound, merely conservative.  Touches are likewise
     object-granular. *)
  let update s p v =
    if p < 1 || p > Array.length s.st then invalid_arg "Snapshot.update";
    writes ~obj:s.obj (fun () ->
        Slx_sim.Runtime.touch ~obj:s.obj ~write:true;
        s.st.(p - 1) <- v)

  let scan s =
    reads ~obj:s.obj (fun () ->
        Slx_sim.Runtime.touch ~obj:s.obj ~write:false;
        Array.copy s.st)
end
