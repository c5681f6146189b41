(* Rounds are built on demand: the first process to enter round [r]
   builds it, inside the instance's id block at an offset fixed by [r],
   between two of its atomic steps.  Construction registers only the
   decision register, whatever [max_rounds] is.  Inside the block slot
   [i] of round [r]'s phase-1 array takes offset [1 + r * 2n + i - 1]
   and slot [i] of its phase-2 array [1 + r * 2n + n + i - 1]. *)
let factory ?(max_rounds = 4096) () : _ Slx_sim.Runner.factory =
 fun ~n ->
  let width = 2 * n in
  let ids = Slx_sim.Runtime.reserve_ids (1 + (max_rounds * width)) in
  let decision =
    Slx_sim.Runtime.in_block ids ~offset:0 (fun () ->
        Slx_base_objects.Register.make None)
  in
  let rounds = Hashtbl.create 8 in
  let round r =
    match Hashtbl.find_opt rounds r with
    | Some rd -> rd
    | None ->
        let rd =
          Slx_sim.Runtime.in_block ids ~offset:(1 + (r * width)) (fun () ->
              Commit_adopt.make_round n)
        in
        Hashtbl.add rounds r rd;
        rd
  in
  fun ~proc (Consensus_type.Propose v) ->
    Consensus_type.Decided
      (Commit_adopt.decide ~name:"Register_consensus" ~equal:Int.equal ~n
         ~max_rounds ~decision ~round ~proc v)
