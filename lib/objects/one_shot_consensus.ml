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
  (* One commit-adopt round (cf. Slx_consensus.Register_consensus,
     generalized to arbitrary values). *)
  type 'a round = {
    a : 'a option Register.t array;
    b : (bool * 'a) option Register.t array;
  }

  type 'a t = {
    n : int;
    rounds : 'a round option array;  (* allocated on first use *)
    allocated : int ref;  (* rounds allocated so far (prefix of [rounds]) *)
    tbl : int;  (* footprint id of the allocation table *)
    decision : 'a option Register.t;
    ids : Slx_sim.Runtime.id_block;  (* round [r] at offset [r * 2n] *)
  }

  let max_rounds = 4096

  (* Builds [a] then [b]: [2n] ids. *)
  let make_round n =
    let a = Array.init n (fun _ -> Register.make None) in
    let b = Array.init n (fun _ -> Register.make None) in
    { a; b }

  let make ~n () =
    (* The allocation table is shared mutable state: fingerprint it
       (rounds are allocated in order, so the count characterizes it —
       the registers themselves register their own readers) and give
       it a footprint id so the lazy-allocation step can report its
       accesses to the sanitizer.  The rounds' ids are reserved here:
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
     shared table mutation cannot be interleaved.  Kept opaque
     (rather than a declared write of [tbl]): allocation also runs the
     nested [Register.make] registrations, and an opaque step's
     conflict-with-everything is the sound declaration for that —
     audits waive the resulting opaque-step lint. *)
  let round t r =
    Slx_sim.Runtime.atomic (fun () ->
        Slx_sim.Runtime.touch ~obj:t.tbl ~write:false;
        match t.rounds.(r) with
        | Some round -> round
        | None ->
            let round =
              Slx_sim.Runtime.in_block t.ids ~offset:(r * 2 * t.n) (fun () ->
                  make_round t.n)
            in
            Slx_sim.Runtime.touch ~obj:t.tbl ~write:true;
            t.rounds.(r) <- Some round;
            incr t.allocated;
            round)

  type 'a outcome = Commit of 'a | Adopt of 'a

  let commit_adopt round ~n ~i v =
    Register.write round.a.(i - 1) (Some v);
    let seen_a =
      List.filter_map
        (fun j -> Register.read round.a.(j))
        (List.init n (fun j -> j))
    in
    let phase1 = if List.for_all (fun u -> u = v) seen_a then (true, v) else (false, v) in
    Register.write round.b.(i - 1) (Some phase1);
    let seen_b =
      List.filter_map
        (fun j -> Register.read round.b.(j))
        (List.init n (fun j -> j))
    in
    let trues = List.filter fst seen_b in
    match trues with
    | (_, u) :: _ when List.for_all (fun (f, _) -> f) seen_b -> Commit u
    | (_, u) :: _ -> Adopt u
    | [] -> Adopt v

  let propose t ~proc v =
    let rec go r pref =
      if r >= max_rounds then
        failwith "One_shot_consensus.Registers: max_rounds exceeded"
      else
        match Register.read t.decision with
        | Some w -> w
        | None -> begin
            match commit_adopt (round t r) ~n:t.n ~i:proc pref with
            | Commit u ->
                Register.write t.decision (Some u);
                u
            | Adopt u -> go (r + 1) u
          end
    in
    if Proc.is_valid ~n:t.n proc then go 0 v
    else invalid_arg "One_shot_consensus.Registers.propose: bad process"

  let peek t = Register.read t.decision
end
