open Slx_history
open Slx_base_objects

module type S = sig
  type 'a t

  val make : n:int -> unit -> 'a t
  val propose : 'a t -> proc:Proc.t -> 'a -> 'a
  val peek : 'a t -> 'a option
end

module Cas = struct
  type 'a t = 'a option Slx_base_objects.Cas.t

  let make ~n:_ () = Slx_base_objects.Cas.make None

  let propose t ~proc:_ v =
    let _won =
      Slx_base_objects.Cas.compare_and_swap t ~expected:None ~desired:(Some v)
    in
    match Slx_base_objects.Cas.read t with
    | Some w -> w
    | None -> assert false

  let peek t = Slx_base_objects.Cas.read t
end

module Registers = struct
  module Commit_adopt = Slx_consensus.Commit_adopt

  type 'a t = {
    n : int;
    rounds : 'a Commit_adopt.round option array;  (* allocated on first use *)
    allocated : int ref;  (* rounds allocated so far (prefix of [rounds]) *)
    tbl : int;  (* footprint id of the allocation table *)
    decision : 'a option Register.t;
    ids : Slx_sim.Runtime.id_block;  (* round [r] at offset [r * 2n] *)
  }

  let max_rounds = 4096

  let make ~n () =
    (* The allocation table is shared mutable state: fingerprint it
       (rounds are allocated in order, so the count characterizes it —
       the registers themselves register their own readers) and give
       it a footprint id so the lazy-allocation step can report its
       accesses.  The rounds' ids are reserved here:
       several instances share a registry (the universal
       construction's log slots), and a round built with the
       registry's counter would be numbered by whichever of them
       allocated first. *)
    let allocated = ref 0 in
    let decision = Register.make None in
    let tbl = Slx_sim.Runtime.register_object (fun () -> !allocated) in
    {
      n;
      rounds = Array.make max_rounds None;
      allocated;
      tbl;
      decision;
      ids = Slx_sim.Runtime.reserve_ids (max_rounds * 2 * n);
    }

  (* Lazily allocate round [r]; modelled as one atomic step so the
     shared table mutation cannot be interleaved.  The step observes
     its [tbl] touches: a read, plus a write when it allocates.  The
     round's registers are built inside the step at ids fixed by [r]
     and are reached only through a later [tbl] read, which the
     allocating write orders. *)
  let round t r =
    Slx_sim.Runtime.atomic (fun () ->
        Slx_sim.Runtime.touch ~obj:t.tbl ~write:false;
        match t.rounds.(r) with
        | Some round -> round
        | None ->
            let round =
              Slx_sim.Runtime.in_block t.ids ~offset:(r * 2 * t.n) (fun () ->
                  Commit_adopt.make_round t.n)
            in
            Slx_sim.Runtime.touch ~obj:t.tbl ~write:true;
            t.rounds.(r) <- Some round;
            incr t.allocated;
            round)

  let propose t ~proc v =
    if Proc.is_valid ~n:t.n proc then
      Commit_adopt.decide ~name:"One_shot_consensus.Registers" ~equal:( = )
        ~n:t.n ~max_rounds ~decision:t.decision ~round:(round t) ~proc v
    else invalid_arg "One_shot_consensus.Registers.propose: bad process"

  let peek t = Register.read t.decision
end
