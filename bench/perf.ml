(* Bechamel performance benchmarks of the artifact itself (P1-P5 in
   DESIGN.md): checker scaling, simulator throughput, implementation
   commit rates and adversary games. *)

open Bechamel
open Toolkit
open Slx_sim

(* ------------------------------------------------------------------ *)
(* Fixtures: histories and factories prepared outside the timed code.  *)

let register_history ~ops =
  (* A register history with [ops] completed operations from a real
     3-process run of a CAS-backed register. *)
  let factory : (Test_support_register.invocation, Test_support_register.response) Runner.factory =
    Test_support_register.factory
  in
  let r =
    Runner.run ~n:3 ~factory
      ~driver:
        (Driver.random ~seed:7
           ~workload:(Driver.n_times ops (fun p k -> Test_support_register.workload p k))
           ())
      ~max_steps:(ops * 8) ()
  in
  r.Run_report.history

let tm_history ~steps =
  let r =
    Runner.run ~n:3 ~factory:(Slx_tm.I12.factory ~vars:2)
      ~driver:(Slx_tm.Tm_workload.random ~seed:9 ())
      ~max_steps:steps ()
  in
  r.Run_report.history

(* P1: linearizability checker scaling. *)
let lin_tests =
  let module Lin = Slx_safety.Linearizability.Make (Test_support_register) in
  List.map
    (fun ops ->
      let h = register_history ~ops in
      Test.make
        ~name:(Printf.sprintf "linearizability/%d-ops" ops)
        (Staged.stage (fun () -> ignore (Lin.check h))))
    [ 4; 8; 12 ]

(* P2: opacity checker scaling. *)
let opacity_tests =
  List.map
    (fun steps ->
      let h = tm_history ~steps in
      let txns = List.length (Slx_tm.Transaction.of_history h) in
      Test.make
        ~name:(Printf.sprintf "opacity/%d-txns" txns)
        (Staged.stage (fun () -> ignore (Slx_tm.Opacity.check_final h))))
    [ 60; 120; 240 ]

(* P3: simulator throughput (steps/run of register consensus). *)
let simulator_tests =
  List.map
    (fun steps ->
      Test.make
        ~name:(Printf.sprintf "simulator/consensus-%d-steps" steps)
        (Staged.stage (fun () ->
             ignore
               (Runner.run ~n:3
                  ~factory:(Slx_consensus.Register_consensus.factory ())
                  ~driver:
                    (Driver.random ~seed:3
                       ~workload:Slx_consensus.Consensus_type.propose_forever
                       ())
                  ~max_steps:steps ()))))
    [ 200; 400 ]

(* P4: I(1,2) commit throughput by process count. *)
let i12_tests =
  List.map
    (fun n ->
      Test.make
        ~name:(Printf.sprintf "i12/run-n%d-300-steps" n)
        (Staged.stage (fun () ->
             ignore
               (Runner.run ~n ~factory:(Slx_tm.I12.factory ~vars:2)
                  ~driver:(Slx_tm.Tm_workload.random ~seed:5 ())
                  ~max_steps:300 ()))))
    [ 2; 3; 4 ]

(* P4b: the snapshot-substitution overhead (atomic snapshot vs the
   Afek-et-al. register construction). *)
let snapshot_substitution_tests =
  List.map
    (fun (name, factory) ->
      Test.make
        ~name:(Printf.sprintf "i12-variant/%s-200-steps" name)
        (Staged.stage (fun () ->
             ignore
               (Runner.run ~n:3 ~factory
                  ~driver:(Slx_tm.Tm_workload.random ~seed:5 ())
                  ~max_steps:200 ()))))
    [
      ("atomic-snapshot", Slx_tm.I12.factory ~vars:2);
      ("register-snapshot", Slx_tm.I12_reg.factory ~vars:2);
    ]

(* P4c: universal-construction throughput over the two consensus
   building blocks. *)
let universal_tests =
  let tp : _ Slx_history.Object_type.t = (module Test_support_register) in
  let workload =
    Driver.forever (fun p ->
        if p = 1 then Test_support_register.Write p else Test_support_register.Read)
  in
  List.map
    (fun (name, consensus) ->
      Test.make
        ~name:(Printf.sprintf "universal/%s-200-steps" name)
        (Staged.stage (fun () ->
             ignore
               (Runner.run ~n:3
                  ~factory:(Slx_objects.Universal.factory ~tp ~consensus ())
                  ~driver:(Driver.random ~seed:7 ~workload ())
                  ~max_steps:200 ()))))
    [ ("cas-consensus", `Cas); ("register-consensus", `Registers) ]

(* P4d: the exhaustive explorer — the incremental engine against the
   replay-from-scratch reference, wall clock. *)
let explore_tests =
  let one_proposal = Slx_serve.Queries.safety_invoke in
  List.concat_map
    (fun depth ->
      [
        Test.make
          ~name:(Printf.sprintf "explore/cas-consensus-depth-%d" depth)
          (Staged.stage (fun () ->
               ignore
                 (Slx_core.Explore.explore ~n:2
                    ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
                    ~invoke:one_proposal ~depth
                    ~check:(fun _ -> true)
                    ())));
        Test.make
          ~name:(Printf.sprintf "explore/cas-consensus-depth-%d-naive" depth)
          (Staged.stage (fun () ->
               ignore
                 (Slx_core.Explore.explore_naive ~n:2
                    ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
                    ~invoke:one_proposal ~depth
                    ~check:(fun _ -> true)
                    ())));
      ])
    [ 6; 8; 10 ]
  @ [
      (* The reduced engine (DPOR + symmetry) on the branchier
         register-consensus tree, against the plain incremental engine
         on the same instance. *)
      Test.make ~name:"explore/register-consensus-depth-10-reduced"
        (Staged.stage (fun () ->
             ignore
               (Slx_core.Explore.explore ~n:2
                  ~factory:(fun () ->
                    Slx_consensus.Register_consensus.factory ())
                  ~invoke:one_proposal ~depth:10 ~dpor:true ~symmetry:true
                  ~check:(fun _ -> true)
                  ())));
      Test.make ~name:"explore/register-consensus-depth-10"
        (Staged.stage (fun () ->
             ignore
               (Slx_core.Explore.explore ~n:2
                  ~factory:(fun () ->
                    Slx_consensus.Register_consensus.factory ())
                  ~invoke:one_proposal ~depth:10
                  ~check:(fun _ -> true)
                  ())));
    ]

(* P4e: TM checker family on one fixed history. *)
let checker_family_tests =
  let h = tm_history ~steps:120 in
  [
    Test.make ~name:"checker/opacity-final"
      (Staged.stage (fun () -> ignore (Slx_tm.Opacity.check_final h)));
    Test.make ~name:"checker/strict-serializability"
      (Staged.stage (fun () -> ignore (Slx_tm.Serializability.strict h)));
    Test.make ~name:"checker/serializability"
      (Staged.stage (fun () -> ignore (Slx_tm.Serializability.plain h)));
    Test.make ~name:"checker/s-prime-rule"
      (Staged.stage (fun () -> ignore (Slx_tm.S_prime.timestamp_rule h)));
  ]

(* P6: hot-loop raw-speed microbenchmarks, so the claimed speedups
   (BENCH_explore.json "micro" row, gated ≥2x by bench/smoke.ml) are
   measured per-operation and not only end-to-end: transposition keying
   (the flat compact-key array in {!Slx_core.Key_table}), the shared
   digest (from-scratch fold vs incremental), step commutation on the
   conflict bitmasks, and a depth-8 exploration.  [cursor] is the
   configuration the keying rows key; [run] owns it. *)
let micro_tests cursor =
  let one_proposal = Slx_serve.Queries.safety_invoke in
  let compact_table = Slx_core.Key_table.create 16 in
  Slx_core.Key_table.replace compact_table
    (Runner.Cursor.compact_key cursor ~extra:[ 0 ])
    1;
  let fp_a =
    Runtime.of_accesses
      [
        { Runtime.obj = 1; write = true };
        { Runtime.obj = 2; write = false };
        { Runtime.obj = 3; write = false };
      ]
  and fp_b =
    Runtime.of_accesses
      [
        { Runtime.obj = 2; write = false };
        { Runtime.obj = 4; write = true };
        { Runtime.obj = 5; write = false };
      ]
  in
  [
    Test.make ~name:"micro/fingerprint-compact"
      (Staged.stage (fun () ->
           ignore
             (Slx_core.Key_table.find_opt compact_table
                (Runner.Cursor.compact_key cursor ~extra:[ 0 ]))));
    Test.make ~name:"micro/shared-digest-full-fold"
      (Staged.stage (fun () ->
           ignore (Runner.Cursor.shared_digest_full cursor)));
    Test.make ~name:"micro/shared-digest-incremental"
      (Staged.stage (fun () -> ignore (Runner.Cursor.shared_digest cursor)));
    Test.make ~name:"micro/commute-masks"
      (Staged.stage (fun () -> ignore (Runtime.commute fp_a fp_b)));
    Test.make ~name:"micro/explore-depth-8"
      (Staged.stage (fun () ->
           ignore
             (Slx_core.Explore.explore ~n:2
                ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
                ~invoke:one_proposal ~depth:8
                ~check:(fun _ -> true)
                ())));
  ]

(* P6b: the simulator kernel — the cost of re-establishing a
   configuration, which is what every sibling after the first pays
   (prefix replay is most of the explorers' steps).  A fixed 18-decision
   register-consensus n=3 prefix (round-robin, one proposal each, the
   lean 18-round instance) replayed into a fresh cursor: factory call,
   18 decisions, disposal; the same on a keyless cursor, as every walk
   without a transposition table builds them; and the default safety
   walk (dpor+symmetry, no table) of register consensus n=3, depth 14,
   one crash, on the lean 14-round instance, a lib-safety query shape.
   Reported in ns per run and, separately, in minor words per run and,
   for the walk, per node. *)
let kernel_runs =
  let factory = Slx_consensus.Register_consensus.factory ~max_rounds:18 () in
  let prefix =
    let taken = ref [] in
    let rr =
      Driver.round_robin ~workload:Slx_consensus.Consensus_type.propose_once ()
    in
    let driver view =
      let d = rr view in
      if d <> Driver.Stop then taken := d :: !taken;
      d
    in
    ignore (Runner.run ~n:3 ~factory ~driver ~max_steps:18 ());
    List.rev !taken
  in
  assert (List.length prefix = 18);
  let walk () =
    Slx_core.Explore.explore ~n:3
      ~factory:(fun () ->
        Slx_consensus.Register_consensus.factory ~max_rounds:14 ())
      ~invoke:Slx_serve.Queries.safety_invoke
      ~depth:14 ~max_crashes:1 ~dpor:true ~symmetry:true
      ~check:Slx_serve.Queries.check ()
  in
  let walk_nodes = (walk ()).Slx_core.Explore.stats.Slx_core.Explore_stats.nodes in
  (* (name, run, allocation runs, nodes per run) *)
  [
    ( "micro/replay-prefix",
      (fun () -> Runner.Cursor.with_ ~n:3 ~factory ~prefix ignore),
      1000,
      None );
    ( "micro/replay-prefix-keyless",
      (fun () -> Runner.Cursor.with_ ~n:3 ~factory ~keyed:false ~prefix ignore),
      1000,
      None );
    ( "micro/explore-register-n3-d14-c1",
      (fun () -> ignore (walk ())),
      5,
      Some walk_nodes );
  ]

let kernel_tests =
  List.map
    (fun (name, run, _, _) -> Test.make ~name (Staged.stage run))
    kernel_runs

(* P5: adversary games. *)
let game_tests =
  [
    Test.make ~name:"game/lockstep-600-steps"
      (Staged.stage (fun () ->
           ignore
             (Slx_consensus.Consensus_adversary.run_lockstep
                ~factory:(Slx_consensus.Register_consensus.factory ())
                ~max_steps:600)));
    Test.make ~name:"game/tm-local-progress-400-steps"
      (Staged.stage (fun () ->
           ignore
             (Slx_tm.Tm_adversary.run_local_progress
                ~factory:(Slx_tm.I12.factory ~vars:1)
                ~max_steps:400 ())));
  ]

let all_tests cursor =
  Test.make_grouped ~name:"slx"
    (lin_tests @ opacity_tests @ simulator_tests @ i12_tests
    @ snapshot_substitution_tests @ universal_tests @ explore_tests
    @ checker_family_tests @ micro_tests cursor @ kernel_tests @ game_tests)

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) () in
  (* The micro rows key a mid-tree register-consensus configuration:
     the kind of cursor the engine keys at every node. *)
  let raw =
    Runner.Cursor.with_ ~n:2
      ~factory:(Slx_consensus.Register_consensus.factory ())
      ~prefix:
        [
          Driver.Invoke (1, Slx_consensus.Consensus_type.Propose 0);
          Driver.Schedule 1;
          Driver.Invoke (2, Slx_consensus.Consensus_type.Propose 1);
          Driver.Schedule 2;
          Driver.Schedule 1;
        ]
      (fun cursor -> Benchmark.all cfg instances (all_tests cursor))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== performance (ns per run, OLS on monotonic clock) ==\n";
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, est) :: acc)
      results []
  in
  List.iter
    (fun (name, est) -> Printf.printf "  %-44s %14.0f ns\n" name est)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  (* Allocation of the kernel rows, counted exactly: Bechamel's
     allocation instance reads the GC's statistics, which OCaml 5
     updates only at a minor collection. *)
  Printf.printf "\n== allocation (minor words per run, Gc.minor_words) ==\n";
  List.iter
    (fun (name, run, runs, nodes) ->
      let w0 = Gc.minor_words () in
      for _ = 1 to runs do
        run ()
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int runs in
      Printf.printf "  %-44s %14.0f words" name words;
      (match nodes with
      | Some k ->
          Printf.printf " (%d nodes, %.1f words per node)" k
            (words /. float_of_int k)
      | None -> ());
      print_newline ())
    kernel_runs
