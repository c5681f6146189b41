open Slx_history

type history = (Consensus_type.invocation, Consensus_type.response) History.t

let k_agreement ~k h =
  List.length
    (List.sort_uniq Int.compare (Consensus_safety.decided_values h))
  <= k

let validity = Consensus_safety.validity

let check ~k h = History.is_well_formed h && k_agreement ~k h && validity h

let property ~k =
  Slx_safety.Property.make
    ~name:(Printf.sprintf "%d-set-agreement" k)
    (check ~k)

let group_of ~k p = (p - 1) mod k

let grouped_factory ~k ?max_rounds () : _ Slx_sim.Runner.factory =
  if k < 1 then invalid_arg "Kset.grouped_factory: k must be positive";
  fun ~n ->
    (* One commit-adopt consensus instance per group; a process plays
       in the instance of its group.  Instances are sized [n] so that
       process identifiers can be used directly as slots. *)
    let instances =
      Array.init k (fun _ -> Register_consensus.factory ?max_rounds () ~n)
    in
    fun ~proc inv -> instances.(group_of ~k proc) ~proc inv
