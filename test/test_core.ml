open Slx_history
open Slx_liveness
open Slx_core
open Support

(* ------------------------------------------------------------------ *)
(* The exclusion game.                                                 *)

let test_exclusion_game_adversary_wins () =
  let v =
    Exclusion.play ~n:2
      ~factory:(Slx_consensus.Register_consensus.factory ())
      ~adversary:(Slx_consensus.Consensus_adversary.lockstep ())
      ~safety:Slx_consensus.Consensus_safety.property
      ~liveness:
        (Live_property.of_freedom
           ~good:Slx_consensus.Consensus_type.good
           (Freedom.make ~l:1 ~k:2))
      ~max_steps:1000
  in
  check_bool "fair" true v.Exclusion.fair;
  check_bool "safety holds" true v.Exclusion.safety_holds;
  check_bool "liveness violated" false v.Exclusion.liveness_holds;
  check_bool "adversary wins" true (Exclusion.adversary_wins v);
  check_bool "implementation does not survive" false
    (Exclusion.implementation_survives v)

let test_exclusion_game_implementation_survives () =
  let v =
    Exclusion.play ~n:2
      ~factory:(Slx_consensus.Cas_consensus.factory ())
      ~adversary:(Slx_consensus.Consensus_adversary.lockstep ())
      ~safety:Slx_consensus.Consensus_safety.property
      ~liveness:
        (Live_property.wait_freedom
           ~good:Slx_consensus.Consensus_type.good
           ~n:2)
      ~max_steps:1000
  in
  check_bool "CAS consensus survives the lockstep adversary" true
    (Exclusion.implementation_survives v);
  check_bool "adversary does not win" false (Exclusion.adversary_wins v)

let test_exclusion_sweep () =
  let adversaries =
    [
      Slx_consensus.Consensus_adversary.lockstep ();
      Slx_sim.Driver.random ~seed:3
        ~workload:Slx_consensus.Consensus_type.propose_forever ();
    ]
  in
  let verdicts =
    Exclusion.sweep ~n:2
      ~factory:(Slx_consensus.Register_consensus.factory ())
      ~adversaries
      ~safety:Slx_consensus.Consensus_safety.property
      ~liveness:
        (Live_property.of_freedom
           ~good:Slx_consensus.Consensus_type.good
           (Freedom.make ~l:1 ~k:2))
      ~max_steps:600
  in
  check_int "two verdicts" 2 (List.length verdicts);
  check_bool "all safe" true
    (List.for_all (fun v -> v.Exclusion.safety_holds) verdicts);
  check_bool "lockstep wins, random does not" true
    (Exclusion.adversary_wins (List.nth verdicts 0)
    && not (Exclusion.adversary_wins (List.nth verdicts 1)))

(* ------------------------------------------------------------------ *)
(* Gmax machinery with the paper's F1/F2.                              *)

let test_gmax_consensus_corollary () =
  let f1 =
    Gmax.make ~name:"F1" (Slx_consensus.Consensus_adversary_sets.f1 ~v:0 ~v':1)
  in
  let f2 =
    Gmax.make ~name:"F2" (Slx_consensus.Consensus_adversary_sets.f2 ~v:0 ~v':1)
  in
  let equal = Slx_consensus.Consensus_adversary_sets.equal_history in
  check_bool "F1 subset of S" true
    (Gmax.subset_of_safety Slx_consensus.Consensus_safety.property f1);
  check_bool "F2 subset of S" true
    (Gmax.subset_of_safety Slx_consensus.Consensus_safety.property f2);
  (* Condition 2: every member leaves a correct invoking process
     undecided — the finite witness of violating wait-freedom. *)
  let violates_wait_freedom h =
    Proc.Set.exists
      (fun p ->
        History.is_correct h p
        && History.invocations_of h p <> []
        && History.responses_of h p = [])
      (History.procs h)
  in
  check_bool "F1 avoids Lmax" true
    (Gmax.avoids_liveness ~violates:violates_wait_freedom f1);
  check_bool "disjoint" true (Gmax.disjoint ~equal f1 f2);
  check_bool "intersection empty" true (Gmax.intersect_all ~equal [ f1; f2 ] = []);
  check_bool "self-intersection full" true
    (List.length (Gmax.intersect ~equal f1 f1) = 6);
  Alcotest.check_raises "empty adversary set rejected"
    (Invalid_argument "Gmax.make: an adversary set is non-empty") (fun () ->
      ignore (Gmax.make ~name:"empty" ([] : int list)))

(* ------------------------------------------------------------------ *)
(* Theorem 4.4 micro-universes.                                        *)

let test_theorem_4_4_traps () =
  let t0 = Theorem_4_4.traps ~n:1 ~quotas:[ 0 ] in
  check_int "never-respond has one trap" 1 (List.length t0);
  check_int "trap is [ping]" 1 (History.length (List.hd t0));
  let t1 = Theorem_4_4.traps ~n:1 ~quotas:[ 1 ] in
  check_int "respond-once has one trap" 1 (List.length t1);
  check_int "trap is ping.ack.ping" 3 (History.length (List.hd t1));
  let t00 = Theorem_4_4.traps ~n:2 ~quotas:[ 0; 0 ] in
  check_int "two-process never-respond: both interleavings" 2
    (List.length t00);
  let t10 = Theorem_4_4.traps ~n:2 ~quotas:[ 1; 0 ] in
  check_int "respond p1 once: four interleavings" 4 (List.length t10)

let test_theorem_4_4_positive () =
  let inst = Theorem_4_4.positive () in
  let g = Theorem_4_4.gmax inst in
  check_int "Gmax has both traps" 2 (List.length g);
  check_bool "Gmax is an adversary set" true
    (Theorem_4_4.gmax_is_adversary_set inst);
  check_bool "weakest excluding liveness exists" true
    (Theorem_4_4.weakest_excluding_exists inst);
  check_bool "matches brute-force enumeration" true
    (Theorem_4_4.verify_by_enumeration inst)

let test_theorem_4_4_negative () =
  let inst = Theorem_4_4.negative () in
  check_bool "Gmax is empty" true (Theorem_4_4.gmax inst = []);
  check_bool "Gmax is not an adversary set" false
    (Theorem_4_4.gmax_is_adversary_set inst);
  check_bool "no weakest excluding liveness" false
    (Theorem_4_4.weakest_excluding_exists inst);
  check_bool "matches brute-force enumeration" true
    (Theorem_4_4.verify_by_enumeration inst)


(* The Gmax characterization validated on randomly generated
   micro-universes: the singleton-trap formula must agree with brute
   force over every covering subset, whatever the instance. *)
let prop_gmax_characterization =
  QCheck2.Test.make ~name:"Gmax characterization matches brute force"
    ~count:40
    QCheck2.Gen.(
      let* n = int_range 1 2 in
      let* count = int_range 1 3 in
      let* quota_sets =
        list_size (return count)
          (list_size (return n) (int_range 0 (if n = 1 then 2 else 1)))
      in
      return (n, List.sort_uniq compare quota_sets))
    (fun (n, quota_sets) ->
      let inst = Theorem_4_4.instance_of ~n ~quota_sets in
      (* Keep the brute force feasible; oversized instances pass
         vacuously. *)
      List.length inst.Theorem_4_4.universe > 14
      || Theorem_4_4.verify_by_enumeration inst)

(* ------------------------------------------------------------------ *)
(* Theorem 4.9 constructions.                                          *)

let test_theorem_4_9 () =
  let r = Theorem_4_9.run ~depth:5 in
  check_bool "both It and Ib ensure S" true r.Theorem_4_9.both_ensure_s;
  check_bool "h = ping separates fair(It) from fair(Ib)" true
    r.Theorem_4_9.h_separates;
  check_bool "h' = ping.ack.ping separates fair(Ib) from fair(It)" true
    r.Theorem_4_9.h'_separates;
  check_bool "both outside Lmax" true r.Theorem_4_9.h_outside_lmax;
  check_bool "Lt and Lb incomparable" true r.Theorem_4_9.incomparable;
  check_bool "all checks pass" true (Theorem_4_9.holds r)

let test_theorem_4_9_depth_stability () =
  (* The verdicts must not depend on the exploration depth once the
     separating histories fit.  Depth 5 is "proof checks" above. *)
  List.iter
    (fun depth ->
      check_bool
        (Printf.sprintf "holds at depth %d" depth)
        true
        (Theorem_4_9.holds (Theorem_4_9.run ~depth)))
    [ 4; 6; 7 ]

let test_lemma_4_8 () =
  check_bool "Lemma 4.8 on the bounded universe (depth 5)" true
    (Theorem_4_9.lemma_4_8 ~depth:5);
  check_bool "Lemma 4.8 at depth 7" true (Theorem_4_9.lemma_4_8 ~depth:7)

let test_theorem_4_9_automata_structure () =
  let it = Theorem_4_9.it () and ib = Theorem_4_9.ib () in
  let open Slx_automata in
  check_bool "It never outputs" true
    (List.for_all
       (fun tr -> not (List.exists (fun a -> a = "ack_1") tr))
       (Automaton.traces it ~depth:5));
  check_bool "Ib outputs at most once" true
    (List.for_all
       (fun tr ->
         List.length (List.filter (fun a -> a = "ack_1") tr) <= 1)
       (Automaton.traces ib ~depth:6));
  (* Composition smoke test: It composed with a compatible environment
     automaton. *)
  let env =
    Automaton.make ~name:"env" ~inputs:[] ~outputs:[ "ping_1" ] ~internals:[]
      ~init:[ State.leaf "e0" ]
      ~delta:(fun s ->
        if State.equal s (State.leaf "e0") then
          [ ("ping_1", State.leaf "e1") ]
        else [])
  in
  check_bool "compatible" true (Automaton.compatible it env);
  let comp = Automaton.compose it env in
  check_bool "ping hidden in composition" true
    (Action.Set.mem "ping_1" (Automaton.internals comp));
  check_bool "composition reaches pending" true
    (Slx_automata.State.Set.exists
       (fun s ->
         match s with
         | State.Pair (a, _) -> State.equal a (State.leaf "pending")
         | State.Leaf _ -> false)
       (Automaton.reachable comp ~depth:3))

(* ------------------------------------------------------------------ *)
(* Figure 1 grids.                                                     *)

let cells_by_color grid color =
  List.filter_map
    (fun (p, c) -> if c = color then Some p else None)
    grid.Figure1.cells

let test_figure_1a_consensus () =
  let grid = Figure1.consensus ~n:3 ~max_steps:900 ~seeds:[ 1; 2 ] () in
  check_bool "no unknowns" true (cells_by_color grid Figure1.Unknown = []);
  check_bool "(1,1) white" true
    (Figure1.color_at grid ~l:1 ~k:1 = Some Figure1.Not_excluded);
  check_bool "(1,2) black" true
    (Figure1.color_at grid ~l:1 ~k:2 = Some Figure1.Excluded);
  check_bool "every k >= 2 point black" true
    (List.for_all
       (fun (p, c) -> Freedom.k p < 2 || c = Figure1.Excluded)
       grid.Figure1.cells);
  (* Theorem 5.2 conclusions. *)
  check_bool "strongest implementable is (1,1)" true
    (Freedom.unique (Figure1.strongest_not_excluded grid)
    = Some Freedom.obstruction_freedom);
  check_bool "weakest non-implementable is (1,2)" true
    (Freedom.unique (Figure1.weakest_excluded grid)
    = Some (Freedom.make ~l:1 ~k:2))

let test_figure_1b_tm () =
  let grid = Figure1.tm ~n:3 ~max_steps:900 ~seeds:[ 1; 2 ] () in
  check_bool "no unknowns" true (cells_by_color grid Figure1.Unknown = []);
  check_bool "bottom row white" true
    (List.for_all
       (fun k -> Figure1.color_at grid ~l:1 ~k = Some Figure1.Not_excluded)
       [ 1; 2; 3 ]);
  check_bool "l >= 2 black" true
    (List.for_all
       (fun (p, c) -> Freedom.l p < 2 || c = Figure1.Excluded)
       grid.Figure1.cells);
  (* Theorem 5.3 conclusions. *)
  check_bool "strongest implementable is (1,n)" true
    (Freedom.unique (Figure1.strongest_not_excluded grid)
    = Some (Freedom.lock_freedom ~n:3));
  check_bool "weakest non-implementable is (2,2)" true
    (Freedom.unique (Figure1.weakest_excluded grid)
    = Some (Freedom.make ~l:2 ~k:2))

let test_s_prime_grid () =
  let grid = Figure1.s_prime ~n:3 ~max_steps:900 ~seeds:[ 1; 2 ] () in
  check_bool "no unknowns" true (cells_by_color grid Figure1.Unknown = []);
  check_bool "(1,1) and (1,2) white" true
    (Figure1.color_at grid ~l:1 ~k:1 = Some Figure1.Not_excluded
    && Figure1.color_at grid ~l:1 ~k:2 = Some Figure1.Not_excluded);
  check_bool "(1,3) black" true
    (Figure1.color_at grid ~l:1 ~k:3 = Some Figure1.Excluded);
  check_bool "(2,2) black" true
    (Figure1.color_at grid ~l:2 ~k:2 = Some Figure1.Excluded);
  (* The Section 5.3 punchline: TWO incomparable minimal excluders. *)
  let weakest = Figure1.weakest_excluded grid in
  check_int "two minimal black points" 2 (List.length weakest);
  check_bool "no unique weakest excluding (l,k)-freedom" true
    (Freedom.unique weakest = None);
  check_bool "they are (2,2) and (1,3)" true
    (List.exists (Freedom.equal (Freedom.make ~l:2 ~k:2)) weakest
    && List.exists (Freedom.equal (Freedom.make ~l:1 ~k:3)) weakest);
  check_bool "strongest implementable is (1,2)" true
    (Freedom.unique (Figure1.strongest_not_excluded grid)
    = Some (Freedom.make ~l:1 ~k:2))

let test_grids_stable_at_n4 () =
  (* The theorem shapes are independent of the system size: re-run the
     classification at n = 4 (10 grid points). *)
  let ca = Figure1.consensus ~n:4 ~max_steps:1200 ~seeds:[ 1; 2 ] () in
  check_bool "consensus n=4: white only at (1,1)" true
    (List.for_all
       (fun (p, c) ->
         if Freedom.equal p Freedom.obstruction_freedom then
           c = Figure1.Not_excluded
         else c = Figure1.Excluded)
       ca.Figure1.cells);
  let tm = Figure1.tm ~n:4 ~max_steps:1200 ~seeds:[ 1; 2 ] () in
  check_bool "tm n=4: white exactly on the l=1 row" true
    (List.for_all
       (fun (p, c) ->
         if Freedom.l p = 1 then c = Figure1.Not_excluded
         else c = Figure1.Excluded)
       tm.Figure1.cells);
  check_bool "tm n=4 strongest is (1,4)" true
    (Freedom.unique (Figure1.strongest_not_excluded tm)
    = Some (Freedom.lock_freedom ~n:4))

let test_mutex_grid_all_white () =
  let grid = Figure1.mutex ~n:3 ~max_steps:1200 ~seeds:[ 1; 2 ] () in
  check_bool "every point white: no trade-off for mutual exclusion" true
    (List.for_all (fun (_, c) -> c = Figure1.Not_excluded) grid.Figure1.cells);
  check_bool "strongest not excluding is Lmax = (n,n)" true
    (Freedom.unique (Figure1.strongest_not_excluded grid)
    = Some (Freedom.wait_freedom ~n:3));
  check_bool "nothing excluded" true (Figure1.weakest_excluded grid = [])

let test_render () =
  let grid = Figure1.consensus ~n:2 ~max_steps:600 ~seeds:[ 1 ] () in
  let s = Figure1.render grid in
  check_bool "render mentions the name" true
    (String.length s > 0
    && String.sub s 0 6 = "Figure");
  check_bool "render has a white and a black mark" true
    (String.contains s 'o' && String.contains s '#')


(* ------------------------------------------------------------------ *)
(* Exhaustive bounded exploration.                                     *)

let one_proposal = Slx_serve.Queries.safety_invoke

let test_explore_cas_consensus_all_schedules () =
  match
    (Explore.explore ~n:2
       ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
       ~invoke:one_proposal ~depth:10
       ~check:Slx_serve.Queries.check
       ())
      .Explore.outcome
  with
  | Explore.Ok runs ->
      check_int "all 20 interleavings of two 3-step ops" 20 runs
  | Explore.Counterexample _ ->
      Alcotest.fail "CAS consensus must be safe on every schedule"

let test_explore_register_consensus_all_schedules () =
  match
    (Explore.explore ~n:2
       ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
       ~invoke:one_proposal ~depth:9
       ~check:Slx_serve.Queries.check
       ())
      .Explore.outcome
  with
  | Explore.Ok runs -> check_bool "explored schedules" true (runs > 20)
  | Explore.Counterexample _ ->
      Alcotest.fail "register consensus must be safe on every schedule"

let test_explore_finds_selfish_counterexample () =
  match
    (Explore.explore ~n:2
       ~factory:(fun () -> Slx_consensus.Selfish_consensus.factory ())
       ~invoke:one_proposal ~depth:6
       ~check:Slx_serve.Queries.check
       ())
      .Explore.outcome
  with
  | Explore.Ok _ -> Alcotest.fail "selfish consensus must disagree somewhere"
  | Explore.Counterexample r ->
      check_bool "counterexample really violates safety" false
        (Slx_consensus.Consensus_safety.check r.Slx_sim.Run_report.history)

let explore_selfish ?cache ?dpor ?symmetry engine =
  let check = Slx_serve.Queries.check in
  let factory () = Slx_consensus.Selfish_consensus.factory () in
  match engine with
  | `Naive ->
      Explore.explore_naive ~n:2 ~factory ~invoke:one_proposal ~depth:6 ~check
        ()
  | `Incremental ->
      Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:6 ?cache ?dpor
        ?symmetry ~check ()

let selfish_witness =
  (* The lexicographically least failing script: in the canonical menu
     order process 1's invocation comes first, then process 2's, and the
     selfish implementation decides its own value already during the
     invocation — two decisions, two different values. *)
  [
    Slx_sim.Driver.Invoke (1, Slx_consensus.Consensus_type.Propose 0);
    Slx_sim.Driver.Invoke (2, Slx_consensus.Consensus_type.Propose 1);
  ]

let decision_testable =
  Alcotest.testable
    (fun fmt d ->
      match d with
      | Slx_sim.Driver.Schedule p -> Format.fprintf fmt "S%d" p
      | Slx_sim.Driver.Invoke (p, Slx_consensus.Consensus_type.Propose v) ->
          Format.fprintf fmt "I%d(%d)" p v
      | Slx_sim.Driver.Crash p -> Format.fprintf fmt "C%d" p
      | Slx_sim.Driver.Stop -> Format.fprintf fmt "stop")
    ( = )

let test_explore_witness_is_deterministic () =
  (* Satellite (c): every engine configuration — naive, incremental,
     cache off, reduced — reports the same counterexample, the
     one with the lexicographically least decision script. *)
  let configs =
    [
      ("naive", explore_selfish `Naive);
      ("incremental", explore_selfish `Incremental);
      ("cache-off", explore_selfish ~cache:false `Incremental);
      ("dpor", explore_selfish ~dpor:true `Incremental);
      ("symmetry", explore_selfish ~symmetry:true `Incremental);
      ("dpor+symmetry", explore_selfish ~dpor:true ~symmetry:true `Incremental);
    ]
  in
  List.iter
    (fun (name, e) ->
      match (e.Explore.outcome, e.Explore.witness_script) with
      | Explore.Counterexample _, Some script ->
          Alcotest.(check (list decision_testable))
            (name ^ " pins the least witness script") selfish_witness script
      | Explore.Counterexample _, None ->
          Alcotest.fail (name ^ ": counterexample without witness script")
      | Explore.Ok _, _ -> Alcotest.fail (name ^ ": missed the violation"))
    configs

let test_explore_stats_sanity () =
  let check = Slx_serve.Queries.check in
  let factory () = Slx_consensus.Cas_consensus.factory () in
  let inc =
    Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:10 ~check ()
  in
  let naive =
    Explore.explore_naive ~n:2 ~factory ~invoke:one_proposal ~depth:10 ~check
      ()
  in
  let s = inc.Explore.stats and ns = naive.Explore.stats in
  check_int "both engines count the same maximal runs" ns.Explore_stats.runs
    s.Explore_stats.runs;
  check_bool "same multiset of final histories" true
    (s.Explore_stats.history_digest = ns.Explore_stats.history_digest);
  check_bool "cache prunes something" true (s.Explore_stats.cache_hits > 0);
  check_bool "in-place extension avoids replays" true
    (s.Explore_stats.replays_avoided > 0);
  check_bool "incremental executes fewer steps" true
    (s.Explore_stats.steps_executed < ns.Explore_stats.steps_executed);
  check_bool "check ran on fewer runs than were credited" true
    (s.Explore_stats.runs_checked <= s.Explore_stats.runs);
  check_int "naive replays at every node" ns.Explore_stats.steps_executed
    ns.Explore_stats.steps_replayed;
  check_bool "exploration measured its own wall clock" true
    (s.Explore_stats.elapsed_ns >= 0);
  check_int "no telemetry, no drops" 0 s.Explore_stats.events_dropped

let test_explore_reduction_stats () =
  (* The reductions must each leave their trace in the stats — and
     none of them may change the verdict. *)
  let check = Slx_serve.Queries.check in
  let factory () = Slx_consensus.Register_consensus.factory () in
  let explore ?(dpor = false) ?(symmetry = false) () =
    Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:10 ~dpor
      ~symmetry ~check ()
  in
  let plain = explore () in
  let reduced = explore ~dpor:true ~symmetry:true () in
  let s = reduced.Explore.stats in
  check_bool "POR put processes to sleep" true (s.Explore_stats.por_prunes > 0);
  check_bool "symmetry pruned untouched-process decisions" true
    (s.Explore_stats.symmetry_pruned > 0);
  check_bool "reductions cut executed steps" true
    (s.Explore_stats.steps_executed
    < plain.Explore.stats.Explore_stats.steps_executed);
  check_bool "reductions explore fewer representatives" true
    (s.Explore_stats.runs < plain.Explore.stats.Explore_stats.runs);
  check_bool "plain engine sleeps and prunes nothing" true
    (plain.Explore.stats.Explore_stats.por_prunes = 0
    && plain.Explore.stats.Explore_stats.symmetry_pruned = 0)

let test_explore_is_sequential () =
  (* [?domains] survives only for callers that pass [~domains:1]. *)
  let factory () = Slx_consensus.Cas_consensus.factory () in
  let explore domains =
    Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:4 ~domains
      ~check:(fun _ -> true) ()
  in
  check_bool "one domain explores" true
    (match (explore 1).Explore.outcome with Explore.Ok _ -> true | _ -> false);
  match explore 2 with
  | _ -> Alcotest.fail "~domains:2 must be rejected"
  | exception Invalid_argument _ -> ()

(* One start-tryC transaction per process, derived from the history. *)
let one_txn view p =
  let h = History.project view.Slx_sim.Driver.history p in
  let started =
    History.count
      (fun e -> Event.invocation e = Some Slx_tm.Tm_type.Start)
      h
    > 0
  in
  let tried =
    History.count
      (fun e -> Event.invocation e = Some Slx_tm.Tm_type.Try_commit)
      h
    > 0
  in
  if not started then Some Slx_tm.Tm_type.Start
  else if not tried then Some Slx_tm.Tm_type.Try_commit
  else None

let test_explore_agp_opacity_all_schedules () =
  match
    (Explore.explore ~n:2
       ~factory:(fun () -> Slx_tm.Agp_tm.factory ~vars:1)
       ~invoke:one_txn ~depth:10
       ~check:(fun r ->
         Slx_tm.Opacity.check_final r.Slx_sim.Run_report.history)
       ())
      .Explore.outcome
  with
  | Explore.Ok runs -> check_bool "explored schedules" true (runs > 20)
  | Explore.Counterexample _ ->
      Alcotest.fail "AGP must be opaque on every schedule"

let test_explore_with_crashes () =
  match
    (Explore.explore ~n:2
       ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
       ~invoke:one_proposal ~depth:7 ~max_crashes:1
       ~check:Slx_serve.Queries.check
       ())
      .Explore.outcome
  with
  | Explore.Ok runs ->
      check_bool "crash branches multiply the schedules" true (runs > 20)
  | Explore.Counterexample _ ->
      Alcotest.fail "CAS consensus must survive single crashes too"

(* ------------------------------------------------------------------ *)
(* The transposition table.  Keys are the explorers' flat int arrays,
   looked up by fresh equal copies, as the explorers build them. *)

let test_key_table_unbounded () =
  (* The table has no capacity: every entry stays, well past the
     5,091 entries of the deepest live corpus pin. *)
  let n = 10_000 in
  let t = Key_table.create 16 in
  for i = 0 to n - 1 do
    Key_table.replace t [| i; i / 7; -i |] i
  done;
  check_int "every key kept" n (Key_table.length t);
  for i = 0 to n - 1 do
    if Key_table.find_opt t [| i; i / 7; -i |] <> Some i then
      Alcotest.failf "key %d lost" i
  done

let test_key_table_replace_in_place () =
  let t = Key_table.create 16 in
  Key_table.replace t [| 1; 2 |] 1;
  Key_table.replace t [| 1; 2 |] 2;
  check_int "an equal key replaces, not adds" 1 (Key_table.length t);
  check_bool "the newer value is found" true
    (Key_table.find_opt t [| 1; 2 |] = Some 2);
  check_bool "a prefix is another key" true (Key_table.find_opt t [| 1 |] = None);
  check_bool "an extension is another key" true
    (Key_table.find_opt t [| 1; 2; 0 |] = None);
  check_bool "the empty key is another key" true
    (Key_table.find_opt t [||] = None)

let test_key_table_long_keys () =
  (* Keys equal in their first 39 elements and differing only in the
     last, past where the polymorphic hash stops looking, and keys
     that are permutations of one another, are all distinct. *)
  let t = Key_table.create 16 in
  let long i = Array.init 40 (fun j -> if j = 39 then i else j) in
  for i = 0 to 999 do
    Key_table.replace t (long i) i
  done;
  check_int "keys differing in the last element are distinct" 1000
    (Key_table.length t);
  check_bool "each long key finds its own value" true
    (List.for_all
       (fun i -> Key_table.find_opt t (long i) = Some i)
       [ 0; 1; 500; 998; 999 ]);
  let p = Key_table.create 16 in
  Key_table.replace p [| 1; 2; 3 |] 0;
  Key_table.replace p [| 3; 2; 1 |] 1;
  Key_table.replace p [| 2; 1; 3 |] 2;
  check_int "permuted keys are distinct" 3 (Key_table.length p);
  check_bool "a permuted key finds its own value" true
    (Key_table.find_opt p [| 3; 2; 1 |] = Some 1)

let suites =
  [
    ( "core-exclusion",
      [
        quick "adversary wins" test_exclusion_game_adversary_wins;
        quick "implementation survives" test_exclusion_game_implementation_survives;
        quick "sweep" test_exclusion_sweep;
      ] );
    ( "core-gmax",
      [ quick "consensus corollary sets" test_gmax_consensus_corollary ] );
    ( "core-theorem-4.4",
      [
        quick "trap enumeration" test_theorem_4_4_traps;
        quick "positive universe" test_theorem_4_4_positive;
        quick "negative universe" test_theorem_4_4_negative;
      ]
      @ qcheck [ prop_gmax_characterization ] );
    ( "core-theorem-4.9",
      [
        quick "proof checks" test_theorem_4_9;
        quick "Lemma 4.8 bounded check" test_lemma_4_8;
        quick "depth stability" test_theorem_4_9_depth_stability;
        quick "automata structure" test_theorem_4_9_automata_structure;
      ] );
    ( "core-explore",
      [
        quick "CAS consensus: all schedules safe" test_explore_cas_consensus_all_schedules;
        quick "register consensus: all schedules safe"
          test_explore_register_consensus_all_schedules;
        quick "selfish foil: counterexample found" test_explore_finds_selfish_counterexample;
        quick "AGP: all schedules opaque" test_explore_agp_opacity_all_schedules;
        quick "crash branching" test_explore_with_crashes;
        quick "deterministic least witness" test_explore_witness_is_deterministic;
        quick "stats sanity" test_explore_stats_sanity;
        quick "reduction stats" test_explore_reduction_stats;
        quick "explore runs on one domain only" test_explore_is_sequential;
      ] );
    ( "core-key-table",
      [
        quick "unbounded: every entry stays" test_key_table_unbounded;
        quick "replace updates in place" test_key_table_replace_in_place;
        quick "long and permuted keys are distinct" test_key_table_long_keys;
      ] );
    ( "core-figure1",
      [
        quick "Figure 1a (consensus)" test_figure_1a_consensus;
        quick "Figure 1b (TM)" test_figure_1b_tm;
        quick "Section 5.3 grid (S')" test_s_prime_grid;
        quick "grids stable at n=4" test_grids_stable_at_n4;
        quick "mutex grid all white" test_mutex_grid_all_white;
        quick "render" test_render;
      ] );
  ]
