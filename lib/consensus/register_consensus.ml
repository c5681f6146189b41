let factory ?(max_rounds = 4096) () : _ Slx_sim.Runner.factory =
 fun ~n ->
  let t =
    Commit_adopt.make ~name:"Register_consensus" ~equal:Int.equal ~n
      ~max_rounds
  in
  fun ~proc (Consensus_type.Propose v) ->
    Consensus_type.Decided (Commit_adopt.propose t ~proc v)
