(* The chaos fuzzer: every implementation in the repository must keep
   its safety property under random scheduling, stalls and crashes. *)

open Slx_history
open Slx_sim
open Support

let propose_own =
  Slx_consensus.Consensus_type.propose_forever

let chaos ~seed ~workload = Chaos.driver ~seed ~workload ()

let run ~n ~seed ~factory ~workload ~max_steps =
  Runner.run ~n ~factory ~driver:(chaos ~seed ~workload) ~max_steps ()

let test_chaos_register_consensus () =
  List.iter
    (fun seed ->
      let r =
        run ~n:3 ~seed
          ~factory:(Slx_consensus.Register_consensus.factory ())
          ~workload:propose_own ~max_steps:400
      in
      check_bool
        (Printf.sprintf "safety (seed %d)" seed)
        true
        (Slx_consensus.Consensus_safety.check r.Run_report.history);
      check_bool "well-formed" true
        (History.is_well_formed r.Run_report.history);
      check_bool "a survivor remains" true
        (Proc.is_valid ~n:3 (Chaos.survivor r)))
    [ 1; 2; 3; 4; 5; 6 ]

let test_chaos_cas_consensus () =
  List.iter
    (fun seed ->
      let r =
        run ~n:4 ~seed
          ~factory:(Slx_consensus.Cas_consensus.factory ())
          ~workload:propose_own ~max_steps:300
      in
      check_bool
        (Printf.sprintf "safety (seed %d)" seed)
        true
        (Slx_consensus.Consensus_safety.check r.Run_report.history))
    [ 7; 8; 9; 10 ]

(* The TM chaos runs use the protocol-aware workload via a custom
   driver wrapper: chaos over Tm_workload's invocation choices. *)
let tm_chaos ~seed : _ Driver.t =
  let rng = Random.State.make [| seed |] in
  fun view ->
    let procs = Proc.all ~n:view.Driver.n in
    let alive =
      List.filter (fun p -> view.Driver.status p <> Runtime.Crashed) procs
    in
    if
      List.length procs - List.length alive < view.Driver.n - 1
      && Random.State.float rng 1.0 < 0.01
      && alive <> []
    then Driver.Crash (List.nth alive (Random.State.int rng (List.length alive)))
    else begin
      let eligible p =
        match view.Driver.status p with
        | Runtime.Ready -> Some (Driver.Schedule p)
        | Runtime.Idle ->
            Some (Driver.Invoke (p, Slx_tm.Tm_workload.next_invocation view p))
        | Runtime.Crashed -> None
      in
      let candidates = List.filter_map eligible procs in
      match candidates with
      | [] -> Driver.Stop
      | _ :: _ ->
          List.nth candidates (Random.State.int rng (List.length candidates))
    end

let test_chaos_tms () =
  List.iter
    (fun (name, factory) ->
      List.iter
        (fun seed ->
          let r =
            Runner.run ~n:3 ~factory ~driver:(tm_chaos ~seed) ~max_steps:160 ()
          in
          check_bool
            (Printf.sprintf "%s final opacity (seed %d)" name seed)
            true
            (Slx_tm.Opacity.check_final r.Run_report.history))
        [ 11; 12; 13 ])
    [
      ("I(1,2)", Slx_tm.I12.factory ~vars:2);
      ("AGP", Slx_tm.Agp_tm.factory ~vars:2);
      ("mutual-abort", Slx_tm.Mutual_abort_tm.factory ~vars:2);
      ("TL2", Slx_tm.Tl2_tm.factory ());
    ]

let test_chaos_locks () =
  (* Locks are blocking: a crashed holder may wedge everyone, but
     mutual exclusion must never break. *)
  List.iter
    (fun (name, factory) ->
      List.iter
        (fun seed ->
          let r =
            Runner.run ~n:2 ~factory
              ~driver:
                (Chaos.driver ~seed
                   ~workload:(Driver.forever (fun _ -> Slx_objects.Mutex.Acquire))
                   ())
              ~max_steps:150 ()
          in
          (* The crude always-acquire workload misuses the protocol on
             purpose; mutual exclusion must hold regardless of the
             responses. *)
          ignore r;
          let r' =
            Runner.run ~n:2 ~factory
              ~driver:
                (let inner = Slx_objects.Mutex.random_workload ~seed () in
                 Driver.with_crashes [ (40 + seed, 1) ] inner)
              ~max_steps:150 ()
          in
          check_bool
            (Printf.sprintf "%s mutual exclusion (seed %d)" name seed)
            true
            (Slx_objects.Mutex.mutual_exclusion r'.Run_report.history))
        [ 14; 15; 16 ])
    [
      ("tas", Slx_objects.Mutex.tas_factory ());
      ("bakery", Slx_objects.Bakery.factory ());
      ("peterson", Slx_objects.Peterson.factory ());
    ]

let test_chaos_stack_and_queue () =
  let stack_workload =
    Driver.n_times 4 (fun p k ->
        if k mod 2 = 0 then Slx_objects.Stack_type.Push ((p * 10) + k)
        else Slx_objects.Stack_type.Pop)
  in
  let module Stack_lin = Slx_safety.Linearizability.Make (Slx_objects.Stack_type.Self) in
  List.iter
    (fun seed ->
      let r =
        run ~n:3 ~seed
          ~factory:(Slx_objects.Treiber_stack.factory ())
          ~workload:stack_workload ~max_steps:400
      in
      check_bool
        (Printf.sprintf "stack linearizable under chaos (seed %d)" seed)
        true
        (Stack_lin.check r.Run_report.history))
    [ 17; 18; 19 ]

let prop_chaos_never_breaks_consensus_safety =
  QCheck2.Test.make ~name:"chaos never breaks consensus safety" ~count:25
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let r =
        run ~n:3 ~seed
          ~factory:(Slx_consensus.Register_consensus.factory ())
          ~workload:propose_own ~max_steps:250
      in
      Slx_consensus.Consensus_safety.check r.Run_report.history)

let prop_chaos_reproducible =
  QCheck2.Test.make ~name:"chaos runs are reproducible from the seed" ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let h () =
        (run ~n:3 ~seed
           ~factory:(Slx_consensus.Cas_consensus.factory ())
           ~workload:propose_own ~max_steps:120)
          .Run_report.history
      in
      History.equal ~inv:( = ) ~res:( = ) (h ()) (h ()))

let suites =
  [
    ( "chaos",
      [
        quick "register consensus" test_chaos_register_consensus;
        quick "cas consensus" test_chaos_cas_consensus;
        quick "TMs" test_chaos_tms;
        quick "locks" test_chaos_locks;
        quick "stack" test_chaos_stack_and_queue;
      ]
      @ qcheck
          [ prop_chaos_never_breaks_consensus_safety; prop_chaos_reproducible ]
    );
  ]
