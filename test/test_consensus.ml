open Slx_history
open Slx_sim
open Slx_liveness
open Slx_consensus
open Support

let propose_own = Consensus_type.propose_forever

let good = Consensus_type.good

let lk l k = Freedom.make ~l ~k

let safety_holds = Slx_serve.Queries.check

(* ------------------------------------------------------------------ *)
(* Register-based consensus (commit-adopt cascade).                    *)

let test_register_solo_decides_own_value () =
  let r =
    Runner.run ~n:2
      ~factory:(Register_consensus.factory ())
      ~driver:(Driver.with_crashes [ (0, 2) ] (Driver.solo 1 ~workload:propose_own))
      ~max_steps:200 ()
  in
  (match Consensus_adversary.decisions r.Run_report.history with
  | (p, v) :: _ ->
      check_int "decision by the solo process" 1 p;
      check_int "solo process decides its own value" 0 v
  | [] -> Alcotest.fail "solo process did not decide");
  check_bool "safety" true (safety_holds r);
  check_bool "bounded-fair" true (Fairness.is_bounded_fair r);
  check_bool "(1,1)-freedom holds" true (Freedom.holds ~good r (lk 1 1))

let test_register_consensus_safety_under_contention () =
  (* Whatever the schedule, agreement and validity must hold. *)
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:3
          ~factory:(Register_consensus.factory ())
          ~driver:(Driver.random ~seed ~workload:propose_own ())
          ~max_steps:600 ()
      in
      check_bool
        (Printf.sprintf "safety under random schedule (seed %d)" seed)
        true (safety_holds r))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_register_consensus_decides_under_random_schedules () =
  (* Random schedules are not adversarial: decisions happen almost
     always.  (Not a liveness guarantee — just evidence the
     implementation is not vacuously undecided.) *)
  let decided =
    List.filter
      (fun seed ->
        let r =
          Runner.run ~n:2
            ~factory:(Register_consensus.factory ())
            ~driver:(Driver.random ~seed ~workload:propose_own ())
            ~max_steps:800 ()
        in
        Consensus_adversary.decisions r.Run_report.history <> [])
      [ 11; 12; 13; 14; 15; 16; 17; 18 ]
  in
  check_bool "most random schedules decide" true (List.length decided >= 6)

(* ------------------------------------------------------------------ *)
(* The lockstep adversary (Theorem 5.2, negative half).                *)

let test_lockstep_prevents_decision () =
  let r =
    Consensus_adversary.run_lockstep
      ~factory:(Register_consensus.factory ())
      ~max_steps:2000
  in
  check_bool "no decision ever" true
    (Consensus_adversary.decisions r.Run_report.history = []);
  check_bool "safety still holds" true (safety_holds r);
  check_bool "run is bounded-fair" true (Fairness.is_bounded_fair r);
  check_bool "both processes active" true
    (Proc.Set.equal (Run_report.active_procs r) (Proc.Set.of_list [ 1; 2 ]))

let test_lockstep_violates_lk_for_k_ge_2 () =
  let r =
    Consensus_adversary.run_lockstep
      ~factory:(Register_consensus.factory ())
      ~max_steps:2000
  in
  check_bool "(1,2) violated" false (Freedom.holds ~good r (lk 1 2));
  check_bool "(2,2) violated" false (Freedom.holds ~good r (lk 2 2));
  check_bool "(1,1) vacuous" true (Freedom.holds ~good r (lk 1 1))

let test_lockstep_loses_to_cas () =
  (* Against CAS-based consensus the same schedule cannot prevent
     decisions: wait-freedom is implementable (Herlihy). *)
  let r =
    Consensus_adversary.run_lockstep
      ~factory:(Cas_consensus.factory ())
      ~max_steps:400
  in
  check_bool "decisions happen" true
    (Consensus_adversary.decisions r.Run_report.history <> []);
  check_bool "safety" true (safety_holds r);
  check_bool "wait-freedom holds" true
    (Freedom.holds ~good r (Freedom.wait_freedom ~n:2))

(* ------------------------------------------------------------------ *)
(* The tie-maintaining search adversary.                               *)

let test_tie_attack_defeats_register_consensus () =
  match
    Consensus_adversary.tie_attack
      ~factory:(Register_consensus.factory ())
      ~steps:60 ()
  with
  | Consensus_adversary.Defeated r ->
      check_bool "no decision in the defeated run" true
        (Consensus_adversary.decisions r.Run_report.history = []);
      check_bool "safety holds on the defeated run" true (safety_holds r)
  | Consensus_adversary.Lost _ ->
      Alcotest.fail "tie attack should defeat register consensus"

let test_tie_attack_loses_to_cas () =
  match
    Consensus_adversary.tie_attack ~factory:(Cas_consensus.factory ()) ~steps:60 ()
  with
  | Consensus_adversary.Defeated _ ->
      Alcotest.fail "tie attack cannot defeat CAS consensus"
  | Consensus_adversary.Lost r ->
      check_bool "a decision occurred" true
        (Consensus_adversary.decisions r.Run_report.history <> [])

(* ------------------------------------------------------------------ *)
(* CAS consensus: the Lmax-implementable foil.                         *)

let test_cas_consensus_wait_free_and_safe () =
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:4
          ~factory:(Cas_consensus.factory ())
          ~driver:(Driver.random ~seed ~workload:propose_own ())
          ~max_steps:300 ()
      in
      check_bool "safety" true (safety_holds r);
      check_bool "fair" true (Fairness.is_bounded_fair r);
      check_bool "wait-freedom" true
        (Freedom.holds ~good r (Freedom.wait_freedom ~n:4)))
    [ 21; 22; 23 ]

(* ------------------------------------------------------------------ *)
(* The unsafe foil.                                                    *)

let test_selfish_violates_agreement () =
  let r =
    Runner.run ~n:2
      ~factory:(Selfish_consensus.factory ())
      ~driver:(Driver.round_robin ~workload:propose_own ())
      ~max_steps:20 ()
  in
  check_bool "agreement violated" false (safety_holds r);
  check_bool "wait-free though" true
    (Freedom.holds ~good r (Freedom.wait_freedom ~n:2))

(* ------------------------------------------------------------------ *)
(* Consensus safety checker unit tests.                                *)

let cinv p v = Event.Invocation (p, Consensus_type.Propose v)
let cres p v = Event.Response (p, Consensus_type.Decided v)

let test_safety_checker_units () =
  let ok_h = History.of_list [ cinv 1 0; cinv 2 1; cres 1 0; cres 2 0 ] in
  check_bool "agreeing history accepted" true (Consensus_safety.check ok_h);
  let disagree = History.of_list [ cinv 1 0; cinv 2 1; cres 1 0; cres 2 1 ] in
  check_bool "agreement violation rejected" false (Consensus_safety.check disagree);
  check_bool "agreement alone false" false (Consensus_safety.agreement disagree);
  let invented = History.of_list [ cinv 1 0; cres 1 7 ] in
  check_bool "validity violation rejected" false (Consensus_safety.check invented);
  check_bool "validity alone false" false (Consensus_safety.validity invented);
  let early = History.of_list [ cres 1 0 ] in
  check_bool "ill-formed rejected" false (Consensus_safety.check early);
  (* Deciding a value proposed later is a validity violation even
     though the value appears in the history. *)
  let time_travel = History.of_list [ cinv 1 0; cres 1 5; cinv 2 5 ] in
  check_bool "decision before proposal rejected" false
    (Consensus_safety.validity time_travel)

let test_safety_weaker_than_linearizability () =
  (* Late proposer deciding the first value twice: linearizable implies
     agreement-and-validity, and here both hold. *)
  let h = History.of_list [ cinv 1 0; cres 1 0; cinv 2 1; cres 2 0 ] in
  check_bool "lin holds" true
    (Slx_safety.Property.holds Consensus_safety.linearizability h);
  check_bool "A&V holds" true (Consensus_safety.check h);
  (* Two sequential proposals both deciding the later value: satisfies
     agreement and validity but is NOT linearizable — A&V is strictly
     weaker. *)
  let h' = History.of_list [ cinv 1 0; cres 1 1; cinv 2 1; cres 2 1 ] in
  check_bool "A&V holds on non-linearizable history" false
    (Consensus_safety.validity h');
  (* validity fails here because 1 was not yet proposed; build the
     intended example with proposals first. *)
  let h'' =
    History.of_list [ cinv 2 1; cres 2 1; cinv 1 0; cres 1 1 ]
  in
  check_bool "A&V accepts" true (Consensus_safety.check h'');
  check_bool "linearizability also accepts this one" true
    (Slx_safety.Property.holds Consensus_safety.linearizability h'')

(* ------------------------------------------------------------------ *)
(* Adversary sets of Corollary 4.5.                                    *)

let test_adversary_sets () =
  let f1 = Consensus_adversary_sets.f1 ~v:0 ~v':1 in
  let f2 = Consensus_adversary_sets.f2 ~v:0 ~v':1 in
  check_int "F1 has six histories" 6 (List.length f1);
  check_int "F2 has six histories" 6 (List.length f2);
  check_bool "F1 and F2 disjoint" true (Consensus_adversary_sets.disjoint f1 f2);
  check_bool "F1 not disjoint from itself" false
    (Consensus_adversary_sets.disjoint f1 f1);
  check_bool "F1 within the safety property" true
    (Consensus_adversary_sets.all_safe f1);
  check_bool "F2 within the safety property" true
    (Consensus_adversary_sets.all_safe f2);
  check_bool "F1 histories leave someone undecided" true
    (Consensus_adversary_sets.all_incomplete f1);
  check_bool "F2 histories leave someone undecided" true
    (Consensus_adversary_sets.all_incomplete f2);
  Alcotest.check_raises "equal values rejected"
    (Invalid_argument "Consensus_adversary_sets.f1: v = v'") (fun () ->
      ignore (Consensus_adversary_sets.f1 ~v:3 ~v':3))

(* Property test: register consensus is safe on arbitrary random
   schedules with crashes. *)
let prop_register_consensus_always_safe =
  QCheck2.Test.make ~name:"register consensus safe under random schedules"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 3))
    (fun (seed, crash_at) ->
      let driver =
        Driver.with_crashes
          [ (10 + crash_at, 2) ]
          (Driver.random ~seed ~workload:propose_own ())
      in
      let r =
        Runner.run ~n:3
          ~factory:(Register_consensus.factory ())
          ~driver ~max_steps:400 ()
      in
      safety_holds r)


(* ------------------------------------------------------------------ *)
(* Consensus from a queue (consensus number 2).                        *)

let one_proposal = Slx_serve.Queries.safety_invoke

let test_queue_consensus_two_procs_exhaustive () =
  match
    (Slx_core.Explore.explore ~n:2
       ~factory:(fun () -> Queue_consensus.factory ())
       ~invoke:one_proposal ~depth:10 ~max_crashes:1
       ~check:Slx_serve.Queries.check
       ())
      .Slx_core.Explore.outcome
  with
  | Slx_core.Explore.Ok runs ->
      check_bool "safe on every 2-process schedule" true (runs > 10)
  | Slx_core.Explore.Counterexample _ ->
      Alcotest.fail "queue consensus must be safe for two processes"

let test_queue_consensus_two_procs_wait_free () =
  (* Every schedule also completes both operations: wait-freedom. *)
  match
    (Slx_core.Explore.explore ~n:2
       ~factory:(fun () -> Queue_consensus.factory ())
       ~invoke:one_proposal ~depth:10
       ~check:(fun r ->
         History.count Event.is_response r.Run_report.history = 2)
       ())
      .Slx_core.Explore.outcome
  with
  | Slx_core.Explore.Ok _ -> ()
  | Slx_core.Explore.Counterexample _ ->
      Alcotest.fail "queue consensus must be wait-free for two processes"

let test_queue_consensus_breaks_at_three () =
  (* The consensus-number-2 boundary: the explorer finds an agreement
     violation with three processes. *)
  match
    (Slx_core.Explore.explore ~n:3
       ~factory:(fun () -> Queue_consensus.factory ())
       ~invoke:one_proposal ~depth:9
       ~check:Slx_serve.Queries.check
       ())
      .Slx_core.Explore.outcome
  with
  | Slx_core.Explore.Ok _ ->
      Alcotest.fail "the naive 3-process extension must disagree somewhere"
  | Slx_core.Explore.Counterexample r ->
      check_bool "the counterexample is a genuine violation" false
        (Consensus_safety.check r.Run_report.history)

let test_queue_consensus_lockstep_immune () =
  (* Unlike register consensus, the queue protocol is wait-free: the
     strict alternation that ties commit-adopt forever cannot prevent
     its decisions.  (The object is one-shot, so the schedule issues
     exactly one proposal per process.) *)
  let r =
    Runner.run ~n:2 ~factory:(Queue_consensus.factory ())
      ~driver:
        (Driver.round_robin
           ~workload:Consensus_type.propose_once
           ())
      ~max_steps:50 ()
  in
  check_int "both decide under strict alternation" 2
    (List.length (Consensus_adversary.decisions r.Run_report.history));
  check_bool "safe" true (safety_holds r)

let suites =
  [
    ( "consensus",
      [
        quick "solo decides own value" test_register_solo_decides_own_value;
        quick "safety under contention" test_register_consensus_safety_under_contention;
        quick "decides under random schedules"
          test_register_consensus_decides_under_random_schedules;
        quick "lockstep prevents decision" test_lockstep_prevents_decision;
        quick "lockstep violates (l,k) for k>=2" test_lockstep_violates_lk_for_k_ge_2;
        quick "lockstep loses to CAS" test_lockstep_loses_to_cas;
        quick "tie attack defeats register consensus"
          test_tie_attack_defeats_register_consensus;
        quick "tie attack loses to CAS" test_tie_attack_loses_to_cas;
        quick "CAS consensus wait-free and safe" test_cas_consensus_wait_free_and_safe;
        quick "selfish foil violates agreement" test_selfish_violates_agreement;
        quick "safety checker units" test_safety_checker_units;
        quick "A&V weaker than linearizability" test_safety_weaker_than_linearizability;
        quick "adversary sets F1/F2" test_adversary_sets;
        quick "queue consensus: 2 procs exhaustive" test_queue_consensus_two_procs_exhaustive;
        quick "queue consensus: 2 procs wait-free" test_queue_consensus_two_procs_wait_free;
        quick "queue consensus breaks at 3" test_queue_consensus_breaks_at_three;
        quick "queue consensus lockstep-immune" test_queue_consensus_lockstep_immune;
      ]
      @ qcheck [ prop_register_consensus_always_safe ] );
  ]
