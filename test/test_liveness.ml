open Slx_history
open Slx_sim
open Slx_liveness
open Support

(* A toy object for synthetic reports: [Good] responses are progress,
   [Bad] ones (think: transaction aborts) are not. *)
type tinv = Go
type tres = Good | Bad

let good = function Good -> true | Bad -> false

(* Build a report directly; [events] are (time, event) pairs. *)
let report ~n ?(crashed = []) ~grants ~events ~total_time ~window () :
    (tinv, tres) Run_report.t =
  {
    Run_report.n;
    history = History.of_list (List.map snd events);
    event_times = Array.of_list (List.map fst events);
    grants;
    crashed = Proc.Set.of_list crashed;
    total_time;
    window;
    stopped = `Max_steps;
  }

(* A window-covering fair report: every process in [active] steps in
   the window; [progressing] get a Good response there. *)
let scenario ~n ?(crashed = []) ~active ~progressing () =
  let grants = List.map (fun p -> (90 + p, p)) active in
  let events =
    List.concat_map
      (fun p ->
        [
          (80 + p, Event.Invocation (p, Go));
          (95 + p, Event.Response (p, if List.mem p progressing then Good else Bad));
        ])
      active
  in
  report ~n ~crashed ~grants ~events ~total_time:100 ~window:50 ()

let lk l k = Freedom.make ~l ~k

let holds r f = Freedom.holds ~good r f

let test_make_validation () =
  Alcotest.check_raises "l > k rejected"
    (Invalid_argument "Freedom.make: requires 1 <= l <= k") (fun () ->
      ignore (Freedom.make ~l:3 ~k:2));
  Alcotest.check_raises "l = 0 rejected"
    (Invalid_argument "Freedom.make: requires 1 <= l <= k") (fun () ->
      ignore (Freedom.make ~l:0 ~k:1))

let test_aliases () =
  check_bool "obstruction-freedom = (1,1)" true
    (Freedom.equal Freedom.obstruction_freedom (lk 1 1));
  check_bool "lock-freedom = (1,n)" true
    (Freedom.equal (Freedom.lock_freedom ~n:4) (lk 1 4));
  check_bool "wait-freedom = (n,n)" true
    (Freedom.equal (Freedom.wait_freedom ~n:4) (lk 4 4));
  check_bool "l-lock-freedom" true
    (Freedom.equal (Freedom.l_lock_freedom ~l:2 ~n:5) (lk 2 5));
  check_bool "k-obstruction-freedom" true
    (Freedom.equal (Freedom.k_obstruction_freedom ~k:3) (lk 3 3))

let test_two_active_both_progress () =
  let r = scenario ~n:3 ~active:[ 1; 2 ] ~progressing:[ 1; 2 ] () in
  check_bool "(2,2) holds" true (holds r (lk 2 2));
  check_bool "(1,2) holds" true (holds r (lk 1 2));
  (* Three correct but only two progress: (3,3) violated. *)
  check_bool "(3,3) violated" false (holds r (lk 3 3))

let test_two_active_one_progresses () =
  let r = scenario ~n:3 ~active:[ 1; 2 ] ~progressing:[ 2 ] () in
  check_bool "(1,2) holds" true (holds r (lk 1 2));
  check_bool "(2,2) violated" false (holds r (lk 2 2));
  check_bool "(1,1) vacuous (two active)" true (holds r (lk 1 1))

let test_two_active_none_progress () =
  let r = scenario ~n:3 ~active:[ 1; 2 ] ~progressing:[] () in
  check_bool "(1,2) violated" false (holds r (lk 1 2));
  check_bool "(1,3) violated" false (holds r (lk 1 3));
  check_bool "(1,1) vacuous" true (holds r (lk 1 1))

let test_solo_progress () =
  let r = scenario ~n:3 ~crashed:[ 2; 3 ] ~active:[ 1 ] ~progressing:[ 1 ] () in
  check_bool "(1,1) holds" true (holds r (lk 1 1));
  check_bool "(3,3) holds (fewer correct than l, all progress)" true
    (holds r (lk 3 3))

let test_solo_no_progress () =
  let r = scenario ~n:3 ~crashed:[ 2; 3 ] ~active:[ 1 ] ~progressing:[] () in
  check_bool "(1,1) violated" false (holds r (lk 1 1))

let test_bad_responses_are_not_progress () =
  (* Everybody gets responses, but they are all Bad: like a TM
     aborting every transaction. *)
  let r = scenario ~n:2 ~active:[ 1; 2 ] ~progressing:[] () in
  check_bool "(1,2) violated despite responses" false (holds r (lk 1 2));
  check_bool "with good = everything it would hold" true
    (Freedom.holds ~good:(fun _ -> true) r (lk 1 2))

let test_explain () =
  let r = scenario ~n:3 ~active:[ 1; 2 ] ~progressing:[ 2 ] () in
  (match Freedom.explain ~good r (lk 2 2) with
  | `Violated missing ->
      check_bool "p1 and p3 failed to progress" true
        (Proc.Set.equal missing (Proc.Set.of_list [ 1; 3 ]))
  | `Holds | `Vacuous -> Alcotest.fail "expected violation");
  check_bool "vacuous above k" true (Freedom.explain ~good r (lk 1 1) = `Vacuous)

(* The paper's incomparability example (Section 5.1): (1,3) and (2,2)
   are incomparable. *)
let test_incomparability_section_5_1 () =
  (* “An execution in which only two processes take steps and only one
     of those two makes progress ensures (1,3)-freedom but does not
     ensure (2,2)-freedom.” *)
  let two_one = scenario ~n:3 ~crashed:[ 3 ] ~active:[ 1; 2 ] ~progressing:[ 1 ] () in
  check_bool "(1,3) holds on two-active-one-progress" true
    (holds two_one (lk 1 3));
  check_bool "(2,2) fails on two-active-one-progress" false
    (holds two_one (lk 2 2));
  (* “An execution in which only three processes take steps and none
     makes progress ensures (2,2)-freedom but not (1,3)-freedom.” *)
  let three_none = scenario ~n:3 ~active:[ 1; 2; 3 ] ~progressing:[] () in
  check_bool "(2,2) vacuous on three-active" true (holds three_none (lk 2 2));
  check_bool "(1,3) fails on three-active" false (holds three_none (lk 1 3));
  check_bool "grid order calls them incomparable" false
    (Freedom.comparable (lk 1 3) (lk 2 2))

(* The strength order. *)

let test_order_basics () =
  check_bool "reflexive" true (Freedom.stronger_equal (lk 2 3) (lk 2 3));
  check_bool "(2,2) stronger than (1,2)" true
    (Freedom.stronger_equal (lk 2 2) (lk 1 2));
  check_bool "(1,2) stronger than (1,1)" true
    (Freedom.stronger_equal (lk 1 2) (lk 1 1));
  check_bool "(1,1) not stronger than (1,2)" false
    (Freedom.stronger_equal (lk 1 1) (lk 1 2));
  check_bool "wait-freedom strongest" true
    (List.for_all
       (Freedom.stronger_equal (Freedom.wait_freedom ~n:4))
       (Freedom.all ~n:4))

let test_all_grid () =
  check_int "grid size n=4 is 10" 10 (List.length (Freedom.all ~n:4));
  check_int "grid size n=1 is 1" 1 (List.length (Freedom.all ~n:1));
  check_bool "all satisfy l <= k" true
    (List.for_all (fun f -> Freedom.l f <= Freedom.k f) (Freedom.all ~n:5))

let test_maximal_minimal () =
  let points = [ lk 1 1; lk 1 2; lk 2 2; lk 1 3 ] in
  let maxes = Freedom.maximal points in
  check_bool "maximal = {(2,2), (1,3)}" true
    (List.length maxes = 2
    && List.exists (Freedom.equal (lk 2 2)) maxes
    && List.exists (Freedom.equal (lk 1 3)) maxes);
  let mins = Freedom.minimal points in
  check_bool "minimal = {(1,1)}" true
    (match mins with [ p ] -> Freedom.equal p (lk 1 1) | _ -> false);
  check_bool "unique on singleton" true
    (Freedom.unique mins = Some (lk 1 1));
  check_bool "unique on pair is None" true (Freedom.unique maxes = None)

(* Semantic soundness of the syntactic order: if a stronger_equal b
   then every scenario satisfying a satisfies b. *)
let prop_order_sound =
  let scenarios =
    (* Enumerate small scenarios: subsets of {1,2,3} active, subsets
       progressing, subsets crashed (disjoint from active). *)
    let subsets = [ []; [ 1 ]; [ 2 ]; [ 1; 2 ]; [ 1; 2; 3 ]; [ 2; 3 ] ] in
    List.concat_map
      (fun active ->
        List.concat_map
          (fun progressing ->
            if List.for_all (fun p -> List.mem p active) progressing then
              [
                scenario ~n:3 ~active ~progressing ();
                scenario ~n:3
                  ~crashed:(List.filter (fun p -> not (List.mem p active)) [ 1; 2; 3 ])
                  ~active ~progressing ();
              ]
            else [])
          subsets)
      subsets
  in
  QCheck2.Test.make ~name:"stronger_equal is semantically sound" ~count:200
    (QCheck2.Gen.pair
       (QCheck2.Gen.oneofl (Freedom.all ~n:3))
       (QCheck2.Gen.oneofl (Freedom.all ~n:3)))
    (fun (a, b) ->
      (not (Freedom.stronger_equal a b))
      || List.for_all (fun r -> (not (holds r a)) || holds r b) scenarios)

(* Live_property wrappers. *)

let test_live_property () =
  let r = scenario ~n:2 ~active:[ 1; 2 ] ~progressing:[ 1 ] () in
  let lock = Live_property.lock_freedom ~good ~n:2 in
  let wait = Live_property.wait_freedom ~good ~n:2 in
  check_bool "lock-freedom holds" true (Live_property.holds lock r);
  check_bool "wait-freedom fails" false (Live_property.holds wait r);
  check_bool "local progress is wait-freedom with good" true
    (Live_property.holds (Live_property.local_progress ~good ~n:2) r = false);
  let both = Live_property.conj ~name:"both" lock wait in
  check_bool "conj" false (Live_property.holds both r);
  check_bool "of_freedom name" true
    (Live_property.name (Live_property.of_freedom ~good (lk 1 2))
    = "(1,2)-freedom")

(* Fairness. *)

let test_fairness () =
  let fair = scenario ~n:2 ~active:[ 1; 2 ] ~progressing:[ 1; 2 ] () in
  check_bool "all active: fair" true (Fairness.is_bounded_fair fair);
  let starving = scenario ~n:3 ~active:[ 1; 2 ] ~progressing:[ 1 ] () in
  check_bool "p3 starved: unfair" false (Fairness.is_bounded_fair starving);
  check_bool "starved set" true
    (Proc.Set.equal (Fairness.starved starving) (Proc.Set.singleton 3));
  let crashed = scenario ~n:3 ~crashed:[ 3 ] ~active:[ 1; 2 ] ~progressing:[ 1 ] () in
  check_bool "crashed process is not starved" true
    (Fairness.is_bounded_fair crashed)

(* Section 6 alternatives. *)

let test_s_freedom () =
  let s12 = Alt.S_freedom.make [ 1; 2 ] in
  let s1 = Alt.S_freedom.make [ 1 ] in
  let s2 = Alt.S_freedom.make [ 2 ] in
  check_bool "cardinalities sorted" true
    (Alt.S_freedom.cardinalities s12 = [ 1; 2 ]);
  check_bool "{1,2} stronger than {1}" true
    (Alt.S_freedom.stronger_equal s12 s1);
  check_bool "{1} not stronger than {2}" false
    (Alt.S_freedom.stronger_equal s1 s2);
  check_bool "singletons incomparable" false (Alt.S_freedom.comparable s1 s2);
  check_int "three singletons for n=3" 3
    (List.length (Alt.S_freedom.singletons ~n:3));
  (* Evaluation: two active correct procs, one progresses. *)
  let r = scenario ~n:3 ~crashed:[ 3 ] ~active:[ 1; 2 ] ~progressing:[ 1 ] () in
  check_bool "{2}-freedom violated" false (Alt.S_freedom.holds ~good r s2);
  check_bool "{1}-freedom vacuous" true (Alt.S_freedom.holds ~good r s1);
  Alcotest.check_raises "empty S rejected"
    (Invalid_argument "S_freedom.make: empty set") (fun () ->
      ignore (Alt.S_freedom.make []))

let test_nx_liveness () =
  (* That the four n = 3 properties are totally ordered is claim E10.1
     of the paper-claims ledger. *)
  let x1 = Alt.Nx_liveness.make ~n:3 ~x:1 in
  let x0 = Alt.Nx_liveness.make ~n:3 ~x:0 in
  check_bool "(3,1) stronger than (3,0)" true
    (Alt.Nx_liveness.stronger_equal x1 x0);
  (* p1 is in the wait-free set: active and correct but no progress
     violates (3,1) and satisfies (3,0) when not solo. *)
  let r = scenario ~n:3 ~active:[ 1; 2 ] ~progressing:[ 2 ] () in
  check_bool "(3,1) violated" false (Alt.Nx_liveness.holds ~good r x1);
  check_bool "(3,0) holds" true (Alt.Nx_liveness.holds ~good r x0);
  (* Solo run without progress violates even (3,0). *)
  let solo = scenario ~n:3 ~crashed:[ 2; 3 ] ~active:[ 1 ] ~progressing:[] () in
  check_bool "(3,0) violated on solo no-progress" false
    (Alt.Nx_liveness.holds ~good solo x0)


(* Lasso certificates. *)

let test_trace_period_units () =
  let period xs = Lasso.trace_period ~equal:Int.equal xs in
  check_bool "perfect period 2" true (period [ 1; 2; 1; 2; 1; 2 ] = Some 2);
  check_bool "constant trace has period 1" true
    (period [ 5; 5; 5; 5 ] = Some 1);
  check_bool "aperiodic" true (period [ 1; 2; 3; 4; 5; 6 ] = None);
  check_bool "period must repeat twice" true (period [ 1; 2; 3; 1 ] = None);
  check_bool "too short" true (period [ 1 ] = None);
  check_bool "empty" true (period [] = None);
  check_bool "smallest period preferred" true
    (period [ 7; 7; 7; 7; 7; 7 ] = Some 1)

let test_lasso_on_lockstep_run () =
  let r =
    Slx_consensus.Consensus_adversary.run_lockstep
      ~factory:(Slx_consensus.Register_consensus.factory ())
      ~max_steps:1200
  in
  (match Lasso.window_period r with
  | Some p -> check_bool "small period" true (p <= 20 && p >= 1)
  | None -> Alcotest.fail "lockstep run must be periodic");
  check_bool "certified violation of (1,2)" true
    (Lasso.certified_violation
       ~good:Slx_consensus.Consensus_type.good
       r
       (Freedom.make ~l:1 ~k:2))

let test_lasso_on_tm_adversary_run () =
  let r =
    Slx_tm.Tm_adversary.run_local_progress
      ~factory:(Slx_tm.I12.factory ~vars:1)
      ~max_steps:1200 ()
  in
  check_bool "TM adversary run is periodic" true
    (Option.is_some (Lasso.window_period r));
  check_bool "certified violation of (2,2)" true
    (Lasso.certified_violation ~good:Slx_tm.Tm_type.good r
       (Freedom.make ~l:2 ~k:2))

let test_no_lasso_on_decided_run () =
  (* A run that decides and then quiesces mid-window is typically not
     periodic over the whole window... but re-invocations make decided
     consensus periodic (propose/decide loops).  Use a one-shot
     workload so the window ends in silence after a non-trivial
     prefix. *)
  let r =
    Slx_sim.Runner.run ~n:2
      ~factory:(Slx_consensus.Cas_consensus.factory ())
      ~driver:
        (Slx_sim.Driver.random ~seed:3
           ~workload:
             (Slx_sim.Driver.n_times 1 (fun p _ ->
                  Slx_consensus.Consensus_type.Propose p))
           ())
      ~max_steps:40 ~window:40 ()
  in
  (* Not asserting None - just that the certificate machinery runs and
     that a finished run is not reported as a violation. *)
  check_bool "no certified violation on a completed run" false
    (Lasso.certified_violation
       ~good:Slx_consensus.Consensus_type.good
       r
       (Freedom.make ~l:1 ~k:2))


(* Section 6 properties evaluated on real runs (not synthetic
   reports): the (n,x)-liveness and S-freedom stories operationally. *)

let test_nx_liveness_on_real_runs () =
  let propose = Slx_consensus.Consensus_type.propose_forever in
  let all_good = Slx_consensus.Consensus_type.good in
  (* (2,0)-liveness (everyone obstruction-free) holds for register
     consensus: the lockstep run has two active processes, so the
     solo clause is vacuous and the wait-free set is empty. *)
  let lockstep =
    Slx_consensus.Consensus_adversary.run_lockstep
      ~factory:(Slx_consensus.Register_consensus.factory ())
      ~max_steps:1000
  in
  let x0 = Alt.Nx_liveness.make ~n:2 ~x:0 in
  let x1 = Alt.Nx_liveness.make ~n:2 ~x:1 in
  check_bool "(2,0)-liveness survives the lockstep run" true
    (Alt.Nx_liveness.holds ~good:all_good lockstep x0);
  check_bool "(2,1)-liveness violated by the lockstep run" false
    (Alt.Nx_liveness.holds ~good:all_good lockstep x1);
  (* And solo runs satisfy (2,0)'s obstruction-free clause. *)
  let solo =
    Runner.run ~n:2
      ~factory:(Slx_consensus.Register_consensus.factory ())
      ~driver:(Driver.with_crashes [ (0, 2) ] (Driver.solo 1 ~workload:propose))
      ~max_steps:300 ()
  in
  check_bool "(2,0)-liveness holds on the solo run" true
    (Alt.Nx_liveness.holds ~good:all_good solo x0)

let test_s_freedom_on_real_runs () =
  let all_good = Slx_consensus.Consensus_type.good in
  (* {1}-freedom (= obstruction-freedom) holds for register consensus:
     vacuous on the two-active lockstep run, satisfied on solo runs;
     {2}-freedom is violated by the lockstep run. *)
  let lockstep =
    Slx_consensus.Consensus_adversary.run_lockstep
      ~factory:(Slx_consensus.Register_consensus.factory ())
      ~max_steps:1000
  in
  let s1 = Alt.S_freedom.make [ 1 ] and s2 = Alt.S_freedom.make [ 2 ] in
  check_bool "{1}-freedom vacuous on the lockstep run" true
    (Alt.S_freedom.holds ~good:all_good lockstep s1);
  check_bool "{2}-freedom violated by the lockstep run" false
    (Alt.S_freedom.holds ~good:all_good lockstep s2)

let suites =
  [
    ( "liveness",
      [
        quick "make validation" test_make_validation;
        quick "aliases" test_aliases;
        quick "two active both progress" test_two_active_both_progress;
        quick "two active one progresses" test_two_active_one_progresses;
        quick "two active none progress" test_two_active_none_progress;
        quick "solo progress" test_solo_progress;
        quick "solo no progress" test_solo_no_progress;
        quick "bad responses are not progress" test_bad_responses_are_not_progress;
        quick "explain" test_explain;
        quick "incomparability (Section 5.1)" test_incomparability_section_5_1;
        quick "order basics" test_order_basics;
        quick "grid enumeration" test_all_grid;
        quick "maximal and minimal" test_maximal_minimal;
        quick "live property wrappers" test_live_property;
        quick "fairness" test_fairness;
        quick "S-freedom" test_s_freedom;
        quick "lasso trace period units" test_trace_period_units;
        quick "lasso on lockstep run" test_lasso_on_lockstep_run;
        quick "lasso on TM adversary run" test_lasso_on_tm_adversary_run;
        quick "no false lasso on decided run" test_no_lasso_on_decided_run;
        quick "(n,x)-liveness on real runs" test_nx_liveness_on_real_runs;
        quick "S-freedom on real runs" test_s_freedom_on_real_runs;
        quick "(n,x)-liveness" test_nx_liveness;
      ]
      @ qcheck [ prop_order_sound ] );
  ]
