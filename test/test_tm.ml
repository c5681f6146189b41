open Slx_history
open Slx_sim
open Slx_liveness
open Slx_tm
open Support

let inv p i = Event.Invocation (p, i)
let res p r = Event.Response (p, r)
let h_of = History.of_list

let start p = inv p Tm_type.Start
let ok p = res p Tm_type.Ok
let read p x = inv p (Tm_type.Read x)
let value p v = res p (Tm_type.Val v)
let write p x v = inv p (Tm_type.Write (x, v))
let tryc p = inv p Tm_type.Try_commit
let committed p = res p Tm_type.Committed
let aborted p = res p Tm_type.Aborted

(* A committed serial transaction writing x0 := v. *)
let serial_write p v =
  [ start p; ok p; write p 0 v; ok p; tryc p; committed p ]

(* ------------------------------------------------------------------ *)
(* Transaction extraction.                                             *)

let test_transaction_extraction () =
  let h =
    h_of
      (serial_write 1 5
      @ [ start 2; ok 2; read 2 0; value 2 5; tryc 2 ]
      @ [ start 1; ok 1 ])
  in
  let txns = Transaction.of_history h in
  check_int "three transactions" 3 (List.length txns);
  (match txns with
  | [ t1; t2; t3 ] ->
      check_bool "t1 committed" true (t1.Transaction.status = Transaction.Committed);
      check_int "t1 is p1's first" 1 t1.Transaction.index;
      check_bool "t1 writes x0=5" true (Transaction.writes t1 = [ (0, 5) ]);
      check_bool "t2 commit-pending" true
        (t2.Transaction.status = Transaction.Commit_pending);
      check_bool "t2 read recorded" true
        (t2.Transaction.ops = [ Transaction.Read_op (0, 5) ]);
      check_bool "t3 live" true (t3.Transaction.status = Transaction.Live);
      check_int "t3 is p1's second" 2 t3.Transaction.index;
      check_bool "t1 precedes t2" true (Transaction.precedes t1 t2);
      check_bool "t2 concurrent with t3" true (Transaction.concurrent t2 t3)
  | _ -> Alcotest.fail "unexpected transaction count");
  ()

let test_abort_mid_transaction () =
  let h = h_of [ start 1; ok 1; write 1 0 3; aborted 1 ] in
  match Transaction.of_history h with
  | [ t ] ->
      check_bool "aborted" true (t.Transaction.status = Transaction.Aborted);
      check_bool "aborted write not recorded as completed op" true
        (t.Transaction.ops = [])
  | _ -> Alcotest.fail "expected one transaction"

(* ------------------------------------------------------------------ *)
(* Opacity checker.                                                    *)

let test_opacity_serial () =
  let h = h_of (serial_write 1 5 @ serial_write 2 7) in
  check_bool "serial committed history opaque" true (Opacity.check h)

let test_opacity_read_committed () =
  let h =
    h_of
      (serial_write 1 5
      @ [ start 2; ok 2; read 2 0; value 2 5; tryc 2; committed 2 ])
  in
  check_bool "reading committed value opaque" true (Opacity.check h)

let test_opacity_dirty_read () =
  (* T2 reads T1's uncommitted write and T1 aborts. *)
  let h =
    h_of
      [
        start 1; ok 1; write 1 0 5; ok 1;
        start 2; ok 2; read 2 0; value 2 5;
        tryc 1; aborted 1;
      ]
  in
  check_bool "dirty read not opaque" false (Opacity.check_final h)

let test_opacity_aborted_must_be_consistent () =
  (* T1 commits x0:=1, x1:=1 atomically; the aborted T2 reads x0 = 1
     but x1 = 0: no serialization point justifies both. *)
  let h =
    h_of
      [
        start 1; ok 1; write 1 0 1; ok 1; write 1 1 1; ok 1;
        start 2; ok 2;
        tryc 1; committed 1;
        read 2 0; value 2 1;
        read 2 1; value 2 0;
        tryc 2; aborted 2;
      ]
  in
  check_bool "inconsistent aborted read not opaque" false
    (Opacity.check_final h);
  (* ... but strict serializability, which ignores aborted reads,
     accepts it: opacity is strictly stronger. *)
  check_bool "strict serializability accepts it" true (Serializability.strict h)

let test_opacity_commit_pending_completion () =
  (* T1 is commit-pending; T2 reads its value.  Opaque via the
     completion that commits T1. *)
  let h =
    h_of
      [
        start 1; ok 1; write 1 0 9; ok 1; tryc 1;
        start 2; ok 2; read 2 0; value 2 9;
      ]
  in
  check_bool "commit-pending completion found" true (Opacity.check_final h)

let test_opacity_live_writes_invisible () =
  (* T1 is live (no tryC): its writes may not be read. *)
  let h =
    h_of
      [
        start 1; ok 1; write 1 0 9; ok 1;
        start 2; ok 2; read 2 0; value 2 9;
      ]
  in
  check_bool "live transaction's write invisible" false
    (Opacity.check_final h)

let test_opacity_real_time_respected () =
  (* T1 commits x0:=5 and completes before T2 starts; T2 reads 0. *)
  let h =
    h_of
      (serial_write 1 5
      @ [ start 2; ok 2; read 2 0; value 2 0; tryc 2; aborted 2 ])
  in
  check_bool "stale read after commit not opaque" false
    (Opacity.check_final h)

let test_opacity_write_skew_style () =
  (* Two concurrent increments both reading 0 and both committing 1:
     serializable orders make the second read stale — not opaque. *)
  let h =
    h_of
      [
        start 1; ok 1; start 2; ok 2;
        read 1 0; value 1 0; read 2 0; value 2 0;
        write 1 0 1; ok 1; write 2 0 1; ok 2;
        tryc 1; committed 1; tryc 2; committed 2;
      ]
  in
  check_bool "lost update not opaque" false (Opacity.check_final h);
  (* If the second commit is an abort instead, all is well. *)
  let h' =
    h_of
      [
        start 1; ok 1; start 2; ok 2;
        read 1 0; value 1 0; read 2 0; value 2 0;
        write 1 0 1; ok 1; write 2 0 1; ok 2;
        tryc 1; committed 1; tryc 2; aborted 2;
      ]
  in
  check_bool "conflict-abort is opaque" true (Opacity.check h')

(* ------------------------------------------------------------------ *)
(* The S' timestamp rule (Section 5.3).                                *)

(* Three same-index transactions, fully concurrent, all invoking tryC
   after all three starts responded. *)
let s_prime_trigger ~outcome3 =
  [
    start 1; ok 1; start 2; ok 2; start 3; ok 3;
    tryc 1; aborted 1; tryc 2; aborted 2; tryc 3; outcome3;
  ]

let test_s_prime_rule_violation () =
  let bad = h_of (s_prime_trigger ~outcome3:(committed 3)) in
  check_bool "committing a forbidden group violates the rule" false
    (S_prime.timestamp_rule bad);
  check_int "one violating group" 1 (List.length (S_prime.violating_groups bad));
  let good = h_of (s_prime_trigger ~outcome3:(aborted 3)) in
  check_bool "aborting the whole group satisfies the rule" true
    (S_prime.timestamp_rule good);
  check_bool "S' holds on the aborting history" true (S_prime.check good)

let test_s_prime_rule_not_triggered_when_sequential () =
  (* Same-index transactions that are NOT concurrent don't trigger. *)
  let h = h_of (serial_write 1 1 @ serial_write 2 2 @ serial_write 3 3) in
  check_bool "sequential same-index transactions may commit" true
    (S_prime.timestamp_rule h);
  check_bool "S' holds" true (S_prime.check h)

let test_s_prime_rule_needs_late_tryc () =
  (* Three concurrent transactions, but p3 invokes tryC before the
     other two starts respond: the rule does not constrain it. *)
  let h =
    h_of
      [
        start 3; ok 3; tryc 3;
        start 1; ok 1; start 2; ok 2;
        res 3 Tm_type.Committed;
        tryc 1; aborted 1; tryc 2; aborted 2;
      ]
  in
  check_bool "early tryC escapes the rule" true (S_prime.timestamp_rule h)

(* ------------------------------------------------------------------ *)
(* I(1,2): Algorithm 1.                                                *)

let run_i12 ~n ~seed ~max_steps ?procs () =
  Runner.run ~n ~factory:(I12.factory ~vars:2)
    ~driver:(Tm_workload.random ?procs ~seed ())
    ~max_steps ()

let total_commits h =
  List.fold_left (fun acc (_, c) -> acc + c) 0 (Tm_adversary.commits h)

let test_i12_solo_commits () =
  let r =
    Runner.run ~n:3 ~factory:(I12.factory ~vars:2)
      ~driver:(Tm_workload.round_robin ~procs:[ 1 ] ())
      ~max_steps:100 ()
  in
  check_bool "solo process commits" true
    (total_commits r.Run_report.history > 0);
  check_bool "history opaque" true (Opacity.check r.Run_report.history);
  check_bool "S' holds" true (S_prime.check r.Run_report.history)

let test_i12_two_procs_opaque_and_live () =
  List.iter
    (fun seed ->
      let r = run_i12 ~n:2 ~seed ~max_steps:160 () in
      check_bool
        (Printf.sprintf "opacity (seed %d)" seed)
        true
        (Opacity.check r.Run_report.history);
      check_bool "S'" true (S_prime.check r.Run_report.history);
      check_bool "(1,2)-freedom" true
        (Freedom.holds ~good:Tm_type.good r (Freedom.make ~l:1 ~k:2)))
    [ 1; 2; 3 ]

let test_i12_two_of_three_commit () =
  (* n = 3 but only two processes participate: the timestamp count
     cannot reach 3, so commits flow — the (1,2)-freedom of Lemma
     5.4. *)
  let r =
    Runner.run ~n:3 ~factory:(I12.factory ~vars:2)
      ~driver:(Tm_workload.random ~procs:[ 1; 2 ] ~seed:5 ())
      ~max_steps:300 ()
  in
  check_bool "commits happen with two active" true
    (total_commits r.Run_report.history > 0);
  check_bool "S' (final) holds" true (S_prime.check_final r.Run_report.history)

let test_i12_three_way_adversary_starves () =
  (* The Section 5.3 adversary: all three start, then all tryC — the
     timestamp rule fires every round, so nobody ever commits. *)
  let r = Tm_adversary.run_three_way ~factory:(I12.factory ~vars:2) ~max_steps:600 in
  check_int "zero commits" 0 (total_commits r.Run_report.history);
  check_bool "S' holds throughout" true (S_prime.check_final r.Run_report.history);
  check_bool "(1,3)-freedom violated" false
    (Freedom.holds ~good:Tm_type.good r (Freedom.make ~l:1 ~k:3));
  check_bool "(2,2) vacuous (three active)" true
    (Freedom.holds ~good:Tm_type.good r (Freedom.make ~l:2 ~k:2));
  check_bool "bounded fair" true (Fairness.is_bounded_fair r)

let test_i12_local_progress_adversary () =
  (* The Section 4.1 adversary against I(1,2) with n = 2: p2 commits
     forever, p1 never does — local progress fails, (1,2) holds. *)
  let r =
    Tm_adversary.run_local_progress ~factory:(I12.factory ~vars:1)
      ~max_steps:600 ()
  in
  let commits = Tm_adversary.commits r.Run_report.history in
  check_int "p1 never commits" 0 (List.assoc 1 commits);
  check_bool "p2 commits repeatedly" true (List.assoc 2 commits > 2);
  check_bool "local progress violated" false
    (Live_property.holds
       (Live_property.local_progress ~good:Tm_type.good ~n:2)
       r);
  check_bool "(1,2)-freedom holds" true
    (Freedom.holds ~good:Tm_type.good r (Freedom.make ~l:1 ~k:2));
  check_bool "(2,2)-freedom violated" false
    (Freedom.holds ~good:Tm_type.good r (Freedom.make ~l:2 ~k:2));
  check_bool "opacity holds" true (Opacity.check_final r.Run_report.history);
  check_bool "fair" true (Fairness.is_bounded_fair r)

let test_adversary_sets_disjoint_tm () =
  (* F1 histories begin with start_1, F2 histories with start_2. *)
  let r1 =
    Tm_adversary.run_local_progress ~factory:(I12.factory ~vars:1)
      ~max_steps:100 ()
  in
  let r2 =
    Tm_adversary.run_local_progress ~swap:true ~factory:(I12.factory ~vars:1)
      ~max_steps:100 ()
  in
  let first_event r = History.nth r.Run_report.history 0 in
  check_bool "F1 starts with start_1" true
    (first_event r1 = inv 1 Tm_type.Start);
  check_bool "F2 starts with start_2" true
    (first_event r2 = inv 2 Tm_type.Start);
  (* The swapped adversary starves p2 instead. *)
  let commits2 = Tm_adversary.commits r2.Run_report.history in
  check_int "swapped: p2 never commits" 0 (List.assoc 2 commits2)

(* ------------------------------------------------------------------ *)
(* AGP: the (1,n)-free opaque TM.                                      *)

let test_agp_lock_free_under_contention () =
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:3 ~factory:(Agp_tm.factory ~vars:2)
          ~driver:(Tm_workload.random ~seed ())
          ~max_steps:400 ()
      in
      check_bool "commits happen" true (total_commits r.Run_report.history > 0);
      check_bool "(1,n)-freedom holds" true
        (Freedom.holds ~good:Tm_type.good r (Freedom.lock_freedom ~n:3));
      check_bool "final-state opacity" true
        (Opacity.check_final r.Run_report.history))
    [ 4; 5; 6 ]

let test_agp_local_progress_adversary () =
  let r =
    Tm_adversary.run_local_progress ~factory:(Agp_tm.factory ~vars:1)
      ~max_steps:600 ()
  in
  check_int "p1 starved" 0 (List.assoc 1 (Tm_adversary.commits r.Run_report.history));
  check_bool "local progress violated" false
    (Live_property.holds
       (Live_property.local_progress ~good:Tm_type.good ~n:2)
       r)

let test_agp_does_not_ensure_s_prime () =
  (* AGP lacks the timestamp rule, so the three-way adversary makes it
     commit a forbidden group: AGP ensures opacity but NOT S'. *)
  let r = Tm_adversary.run_three_way ~factory:(Agp_tm.factory ~vars:2) ~max_steps:300 in
  check_bool "some commit happened" true (total_commits r.Run_report.history > 0);
  check_bool "timestamp rule violated" false
    (S_prime.timestamp_rule r.Run_report.history);
  check_bool "opacity still holds" true
    (Opacity.check_final r.Run_report.history)

(* ------------------------------------------------------------------ *)
(* The always-abort TM.                                                *)

let test_always_abort () =
  let r =
    Runner.run ~n:2 ~factory:(Always_abort_tm.factory ())
      ~driver:(Tm_workload.round_robin ())
      ~max_steps:60 ()
  in
  check_int "zero commits" 0 (total_commits r.Run_report.history);
  check_bool "opaque" true (Opacity.check r.Run_report.history);
  check_bool "S' holds" true (S_prime.check r.Run_report.history);
  (* Every response arrives (wait-free in responses) yet no (l,k)
     property with commits-as-good is satisfied on fair solo runs. *)
  let solo =
    Runner.run ~n:2 ~factory:(Always_abort_tm.factory ())
      ~driver:(Driver.with_crashes [ (0, 2) ] (Tm_workload.round_robin ~procs:[ 1 ] ()))
      ~max_steps:60 ()
  in
  check_bool "(1,1)-freedom violated by always-abort" false
    (Freedom.holds ~good:Tm_type.good solo Freedom.obstruction_freedom);
  check_bool "with good = all responses it would hold" true
    (Freedom.holds ~good:(fun _ -> true) solo Freedom.obstruction_freedom)

(* ------------------------------------------------------------------ *)
(* Serializability inclusion chain.                                    *)

let test_serializability_units () =
  let h = h_of (serial_write 1 5 @ serial_write 2 7) in
  check_bool "strict" true (Serializability.strict h);
  check_bool "plain" true (Serializability.plain h);
  (* Strict but not plain is impossible; plain but not strict: a stale
     committed read reordered across real time. *)
  let stale =
    h_of
      (serial_write 1 5
      @ [ start 2; ok 2; read 2 0; value 2 0; tryc 2; committed 2 ])
  in
  check_bool "stale committed read not strictly serializable" false
    (Serializability.strict stale);
  check_bool "but plainly serializable" true (Serializability.plain stale)

let prop_inclusion_chain =
  (* On histories produced by real TM runs: opacity => strict =>
     plain. *)
  QCheck2.Test.make ~name:"opacity => strict => plain serializability"
    ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r = run_i12 ~n:2 ~seed ~max_steps:120 () in
      let h = r.Run_report.history in
      let op = Opacity.check_final h in
      let strict = Serializability.strict h in
      let plain = Serializability.plain h in
      ((not op) || strict) && ((not strict) || plain))

let prop_i12_always_safe =
  QCheck2.Test.make ~name:"I(1,2) ensures S' on random schedules" ~count:15
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r =
        Runner.run ~n:3 ~factory:(I12.factory ~vars:2)
          ~driver:(Tm_workload.random ~seed ())
          ~max_steps:150 ()
      in
      S_prime.check_final r.Run_report.history)

let prop_agp_always_opaque =
  QCheck2.Test.make ~name:"AGP ensures opacity on random schedules" ~count:15
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r =
        Runner.run ~n:3 ~factory:(Agp_tm.factory ~vars:2)
          ~driver:(Tm_workload.random ~seed ())
          ~max_steps:150 ()
      in
      Opacity.check_final r.Run_report.history)

let prop_workload_well_formed =
  QCheck2.Test.make ~name:"TM workload produces well-formed histories"
    ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r = run_i12 ~n:3 ~seed ~max_steps:150 () in
      History.is_well_formed r.Run_report.history)


(* ------------------------------------------------------------------ *)
(* The mutual-abort TM: obstruction-free but not lock-free.            *)

let test_mutual_abort_solo_commits () =
  let r =
    Runner.run ~n:2 ~factory:(Mutual_abort_tm.factory ~vars:1)
      ~driver:(Tm_workload.round_robin ~procs:[ 1 ] ())
      ~max_steps:120 ()
  in
  check_bool "solo transactions commit (obstruction-free)" true
    (total_commits r.Run_report.history > 0);
  check_bool "opaque" true (Opacity.check r.Run_report.history)

let test_mutual_abort_defeated_by_alternation () =
  let r =
    Tm_adversary.run_alternating_starts
      ~factory:(Mutual_abort_tm.factory ~vars:1)
      ~max_steps:600
  in
  check_int "mutual abort: zero commits" 0 (total_commits r.Run_report.history);
  check_bool "fair" true (Fairness.is_bounded_fair r);
  check_bool "opacity holds" true (Opacity.check_final r.Run_report.history);
  check_bool "(1,2)-freedom violated: not lock-free" false
    (Freedom.holds ~good:Tm_type.good r (Freedom.make ~l:1 ~k:2));
  check_bool "(1,1)-freedom vacuous on this run" true
    (Freedom.holds ~good:Tm_type.good r Freedom.obstruction_freedom)

let test_agp_survives_alternation () =
  (* AGP has no latest-starter rule: the same schedule cannot prevent
     its commits. *)
  let r =
    Tm_adversary.run_alternating_starts ~factory:(Agp_tm.factory ~vars:1)
      ~max_steps:300
  in
  check_bool "AGP commits under alternating starts" true
    (total_commits r.Run_report.history > 0)

let test_mutual_abort_random_safe () =
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:3 ~factory:(Mutual_abort_tm.factory ~vars:2)
          ~driver:(Tm_workload.random ~seed ())
          ~max_steps:150 ()
      in
      check_bool
        (Printf.sprintf "opacity (seed %d)" seed)
        true
        (Opacity.check_final r.Run_report.history))
    [ 11; 12; 13 ]


(* ------------------------------------------------------------------ *)
(* The TL2-style lock-based TM: opaque but blocking.                   *)

let test_tl2_solo_commits () =
  let r =
    Runner.run ~n:2 ~factory:(Tl2_tm.factory ())
      ~driver:(Tm_workload.round_robin ~procs:[ 1 ] ())
      ~max_steps:120 ()
  in
  check_bool "solo transactions commit" true
    (total_commits r.Run_report.history > 0);
  check_bool "opaque" true (Opacity.check r.Run_report.history)

let test_tl2_opaque_under_contention () =
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:3 ~factory:(Tl2_tm.factory ())
          ~driver:(Tm_workload.random ~seed ())
          ~max_steps:200 ()
      in
      check_bool
        (Printf.sprintf "opacity (seed %d)" seed)
        true
        (Opacity.check_final r.Run_report.history);
      check_bool "commits happen" true (total_commits r.Run_report.history > 0))
    [ 1; 2; 3; 4 ]

(* Crash p1 exactly while it holds the commit lock (after its lock CAS,
   before its publish step), then run p2 solo. *)
let crash_holding_lock ~factory ~max_steps =
  let driver view =
    let open Driver in
    if Proc.Set.mem 1 (History.crashed view.history) then
      (* p2 runs alone, forever retrying transactions. *)
      match view.status 2 with
      | Slx_sim.Runtime.Ready -> Schedule 2
      | Slx_sim.Runtime.Idle -> Invoke (2, Tm_workload.next_invocation view 2)
      | Slx_sim.Runtime.Crashed -> Stop
    else
      (* Drive p1 through start; read; write; tryC, but crash it after
         granting the tryC's second atomic step (the lock CAS). *)
      let p1_tryc_invoked =
        History.count
          (fun e -> Event.invocation e = Some Tm_type.Try_commit)
          (History.project view.history 1)
        > 0
      in
      match view.status 1 with
      | Slx_sim.Runtime.Idle -> Invoke (1, Tm_workload.next_invocation view 1)
      | Slx_sim.Runtime.Ready ->
          (* Count p1's steps since tryC: grant the read (validation)
             and the lock CAS, then crash. *)
          if p1_tryc_invoked && view.steps 1 >= 4 then Crash 1 else Schedule 1
      | Slx_sim.Runtime.Crashed -> Stop
  in
  Runner.run ~n:2 ~factory ~driver ~max_steps ()

let test_tl2_blocking_under_crash () =
  (* TL2: the crashed lock holder wedges p2 forever - (1,1)-freedom
     fails in the presence of the crash: the lock-based TM is
     blocking, exactly the paper's non-blocking footnote.  That p2
     never commits and (1,1)-freedom fails is claim E17.1 of the
     paper-claims ledger. *)
  let r = crash_holding_lock ~factory:(Tl2_tm.factory ()) ~max_steps:400 in
  check_bool "p1 crashed" true (Proc.Set.mem 1 r.Run_report.crashed);
  check_bool "fair (p2 keeps stepping)" true (Fairness.is_bounded_fair r);
  check_bool "opacity still holds" true
    (Opacity.check_final r.Run_report.history)

let test_agp_non_blocking_under_crash () =
  (* The same crash schedule against AGP: p2 sails past the corpse. *)
  let r = crash_holding_lock ~factory:(Agp_tm.factory ~vars:1) ~max_steps:400 in
  check_bool "p2 commits despite p1's crash" true
    (List.assoc 2 (Tm_adversary.commits r.Run_report.history) > 0);
  check_bool "(1,1)-freedom holds: non-blocking" true
    (Freedom.holds ~good:Tm_type.good r Freedom.obstruction_freedom)


(* ------------------------------------------------------------------ *)
(* The protocol-aware workload driver.                                 *)

let test_tm_workload_transitions () =
  (* Build driver views by hand and check next_invocation walks the
     canonical transaction program. *)
  let view_of events : (Tm_type.invocation, Tm_type.response) Driver.view =
    let history = h_of events in
    let count keep p =
      History.length
        (History.filter (fun e -> keep e && Event.proc e = p) history)
    in
    {
      Driver.time = 0;
      n = 1;
      history;
      status = (fun _ -> Slx_sim.Runtime.Idle);
      steps = (fun _ -> 0);
      invocations = count Event.is_invocation;
      events = count (fun _ -> true);
    }
  in
  let next events = Tm_workload.next_invocation (view_of events) 1 in
  check_bool "fresh process starts" true (next [] = Tm_type.Start);
  check_bool "after start: read" true
    (next [ start 1; ok 1 ] = Tm_type.Read 0);
  check_bool "after read: write read+1" true
    (next [ start 1; ok 1; read 1 0; value 1 7 ] = Tm_type.Write (0, 8));
  check_bool "after write: tryC" true
    (next [ start 1; ok 1; read 1 0; value 1 7; write 1 0 8; ok 1 ]
    = Tm_type.Try_commit);
  check_bool "after commit: start afresh" true
    (next
       [ start 1; ok 1; read 1 0; value 1 7; write 1 0 8; ok 1; tryc 1;
         committed 1 ]
    = Tm_type.Start);
  check_bool "after abort anywhere: start afresh" true
    (next [ start 1; ok 1; read 1 0; aborted 1 ] = Tm_type.Start)

let suites =
  [
    ( "tm-transactions",
      [
        quick "extraction" test_transaction_extraction;
        quick "abort mid-transaction" test_abort_mid_transaction;
      ] );
    ( "tm-opacity",
      [
        quick "serial history" test_opacity_serial;
        quick "read committed" test_opacity_read_committed;
        quick "dirty read" test_opacity_dirty_read;
        quick "aborted reads must be consistent" test_opacity_aborted_must_be_consistent;
        quick "commit-pending completion" test_opacity_commit_pending_completion;
        quick "live writes invisible" test_opacity_live_writes_invisible;
        quick "real time respected" test_opacity_real_time_respected;
        quick "lost update rejected" test_opacity_write_skew_style;
        quick "serializability units" test_serializability_units;
      ] );
    ( "tm-s-prime",
      [
        quick "rule violation detected" test_s_prime_rule_violation;
        quick "sequential groups exempt" test_s_prime_rule_not_triggered_when_sequential;
        quick "early tryC exempt" test_s_prime_rule_needs_late_tryc;
      ] );
    ( "tm-implementations",
      [
        quick "I(1,2) solo commits" test_i12_solo_commits;
        quick "I(1,2) two procs opaque and live" test_i12_two_procs_opaque_and_live;
        quick "I(1,2) two of three commit" test_i12_two_of_three_commit;
        quick "I(1,2) three-way adversary starves" test_i12_three_way_adversary_starves;
        quick "I(1,2) local-progress adversary" test_i12_local_progress_adversary;
        quick "TM adversary sets disjoint" test_adversary_sets_disjoint_tm;
        quick "AGP lock-free under contention" test_agp_lock_free_under_contention;
        quick "AGP local-progress adversary" test_agp_local_progress_adversary;
        quick "AGP does not ensure S'" test_agp_does_not_ensure_s_prime;
        quick "always-abort TM" test_always_abort;
        quick "mutual-abort TM solo commits" test_mutual_abort_solo_commits;
        quick "mutual-abort TM defeated by alternation"
          test_mutual_abort_defeated_by_alternation;
        quick "AGP survives alternation" test_agp_survives_alternation;
        quick "mutual-abort TM random safe" test_mutual_abort_random_safe;
        quick "TL2 solo commits" test_tl2_solo_commits;
        quick "TL2 opaque under contention" test_tl2_opaque_under_contention;
        quick "TL2 blocking under crash" test_tl2_blocking_under_crash;
        quick "AGP non-blocking under crash" test_agp_non_blocking_under_crash;
        quick "TM workload transitions" test_tm_workload_transitions;
      ]
      @ qcheck
          [
            prop_inclusion_chain;
            prop_i12_always_safe;
            prop_agp_always_opaque;
            prop_workload_well_formed;
          ] );
  ]
