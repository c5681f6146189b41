open Slx_history
open Slx_sim
open Slx_liveness
open Slx_objects
open Support

(* ------------------------------------------------------------------ *)
(* The register-built snapshot (Afek et al.).                          *)

let snapshot_factory () :
    (Snapshot_type.invocation, Snapshot_type.response) Runner.factory =
 fun ~n ->
  let s = Snapshot_alg.make ~n 0 in
  fun ~proc:_ inv ->
    match inv with
    | Snapshot_type.Update (i, v) ->
        Snapshot_alg.update s ~proc:i v;
        Snapshot_type.Ok
    | Snapshot_type.Scan ->
        Snapshot_type.View (Array.to_list (Snapshot_alg.scan s))

module Snapshot3 = (val Snapshot_type.make ~n:3)
module Snap_lin = Slx_safety.Linearizability.Make (Snapshot3)

(* Writers update their own slot with increasing values; scanners
   interleave. *)
let snapshot_workload : (Snapshot_type.invocation, Snapshot_type.response) Driver.workload =
  Driver.n_times 4 (fun p k ->
      if p = 3 || k mod 2 = 1 then Snapshot_type.Scan
      else Snapshot_type.Update (p, (p * 10) + k))

let run_snapshot ~seed =
  Runner.run ~n:3 ~factory:(snapshot_factory ())
    ~driver:(Driver.random ~seed ~workload:snapshot_workload ())
    ~max_steps:2000 ()

let test_snapshot_solo_semantics () =
  let r =
    Runner.run ~n:3 ~factory:(snapshot_factory ())
      ~driver:
        (Driver.solo 1
           ~workload:
             (Driver.n_times 3 (fun _ k ->
                  if k = 2 then Snapshot_type.Scan
                  else Snapshot_type.Update (1, k + 5))))
      ~max_steps:500 ()
  in
  let views =
    List.filter_map
      (fun e ->
        match Event.response e with
        | Some (Snapshot_type.View v) -> Some v
        | Some Snapshot_type.Ok | None -> None)
      (History.to_list r.Run_report.history)
  in
  check_bool "solo scan sees the last update" true (views = [ [ 6; 0; 0 ] ])

let test_snapshot_wait_free () =
  (* Every operation completes: no scan retries forever under any of
     these schedules. *)
  List.iter
    (fun seed ->
      let r = run_snapshot ~seed in
      check_bool
        (Printf.sprintf "all ops complete (seed %d)" seed)
        true
        (History.pending_procs r.Run_report.history = Proc.Set.empty
        && r.Run_report.stopped = `Quiescent))
    [ 1; 2; 3; 4 ]

let test_snapshot_linearizable () =
  List.iter
    (fun seed ->
      let r = run_snapshot ~seed in
      check_bool
        (Printf.sprintf "linearizable (seed %d)" seed)
        true
        (Snap_lin.check r.Run_report.history))
    [ 1; 2; 3; 4; 5; 6 ]

let prop_snapshot_linearizable =
  QCheck2.Test.make ~name:"register-built snapshot is linearizable" ~count:12
    QCheck2.Gen.(int_range 0 1000)
    (fun seed -> Snap_lin.check (run_snapshot ~seed).Run_report.history)

(* ------------------------------------------------------------------ *)
(* The Treiber stack.                                                  *)

module Stack_lin = Slx_safety.Linearizability.Make (Stack_type.Self)

let stack_workload : (Stack_type.invocation, Stack_type.response) Driver.workload =
  Driver.n_times 4 (fun p k ->
      if k mod 2 = 0 then Stack_type.Push ((p * 100) + k) else Stack_type.Pop)

let run_stack ~seed ~n =
  Runner.run ~n ~factory:(Treiber_stack.factory ())
    ~driver:(Driver.random ~seed ~workload:stack_workload ())
    ~max_steps:600 ()

let test_stack_sequential () =
  let r =
    Runner.run ~n:1 ~factory:(Treiber_stack.factory ())
      ~driver:
        (Driver.solo 1
           ~workload:
             (Driver.n_times 4 (fun _ k ->
                  match k with
                  | 0 -> Stack_type.Push 1
                  | 1 -> Stack_type.Push 2
                  | 2 -> Stack_type.Pop
                  | _ -> Stack_type.Pop)))
      ~max_steps:200 ()
  in
  let responses = History.responses_of r.Run_report.history 1 in
  check_bool "LIFO order" true
    (responses
    = [ Stack_type.Pushed; Stack_type.Pushed; Stack_type.Popped 2;
        Stack_type.Popped 1 ])

let test_stack_empty () =
  let r =
    Runner.run ~n:1 ~factory:(Treiber_stack.factory ())
      ~driver:(Driver.solo 1 ~workload:(Driver.n_times 1 (fun _ _ -> Stack_type.Pop)))
      ~max_steps:50 ()
  in
  check_bool "pop on empty" true
    (History.responses_of r.Run_report.history 1 = [ Stack_type.Empty ])

let test_stack_linearizable_under_contention () =
  List.iter
    (fun seed ->
      let r = run_stack ~seed ~n:3 in
      check_bool
        (Printf.sprintf "linearizable (seed %d)" seed)
        true
        (Stack_lin.check r.Run_report.history))
    [ 1; 2; 3; 4; 5 ]

let test_stack_lock_free () =
  let r = run_stack ~seed:9 ~n:3 in
  check_bool "every operation completed" true
    (History.pending_procs r.Run_report.history = Proc.Set.empty)

let prop_stack_linearizable =
  QCheck2.Test.make ~name:"Treiber stack is linearizable" ~count:12
    QCheck2.Gen.(int_range 0 1000)
    (fun seed -> Stack_lin.check (run_stack ~seed ~n:2).Run_report.history)

(* ------------------------------------------------------------------ *)
(* The TAS mutex and the starvation adversary.                         *)

let test_mutex_solo () =
  let r =
    Runner.run ~n:2 ~factory:(Mutex.tas_factory ())
      ~driver:(Driver.with_crashes [ (0, 2) ] (Mutex.workload ~procs:[ 1 ] ()))
      ~max_steps:100 ()
  in
  check_bool "mutual exclusion" true
    (Mutex.mutual_exclusion r.Run_report.history);
  check_bool "solo process keeps acquiring" true
    (List.assoc 1 (Mutex.acquisitions r.Run_report.history) > 3);
  check_bool "(1,1)-freedom holds" true
    (Freedom.holds ~good:Mutex.good r Freedom.obstruction_freedom)

let test_mutex_fair_schedules_safe () =
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:3 ~factory:(Mutex.tas_factory ())
          ~driver:(Mutex.random_workload ~seed ())
          ~max_steps:300 ()
      in
      check_bool
        (Printf.sprintf "mutual exclusion (seed %d)" seed)
        true
        (Mutex.mutual_exclusion r.Run_report.history);
      check_bool "someone acquires" true
        (List.exists (fun (_, c) -> c > 0) (Mutex.acquisitions r.Run_report.history));
      check_bool "lock-freedom holds" true
        (Freedom.holds ~good:Mutex.good r (Freedom.lock_freedom ~n:3)))
    [ 1; 2; 3; 4 ]

let test_mutex_starvation_adversary () =
  let r = Mutex.run_starvation ~factory:(Mutex.tas_factory ()) ~max_steps:600 in
  let acq = Mutex.acquisitions r.Run_report.history in
  check_int "p1 never acquires" 0 (List.assoc 1 acq);
  check_bool "p2 acquires repeatedly" true (List.assoc 2 acq > 3);
  check_bool "mutual exclusion still holds" true
    (Mutex.mutual_exclusion r.Run_report.history);
  check_bool "bounded fair" true (Fairness.is_bounded_fair r);
  check_bool "(1,2)-freedom holds (p2 progresses)" true
    (Freedom.holds ~good:Mutex.good r (Freedom.make ~l:1 ~k:2));
  check_bool "(2,2)-freedom violated: no starvation-freedom" false
    (Freedom.holds ~good:Mutex.good r (Freedom.make ~l:2 ~k:2));
  check_bool "starvation-freedom (= wait-freedom on acquires) violated" false
    (Live_property.holds (Live_property.wait_freedom ~good:Mutex.good ~n:2) r)

let test_mutex_safety_checker_units () =
  let acq p = Event.Invocation (p, Mutex.Acquire) in
  let got p = Event.Response (p, Mutex.Acquired) in
  let rel p = Event.Invocation (p, Mutex.Release) in
  let rld p = Event.Response (p, Mutex.Released) in
  check_bool "legal handover" true
    (Mutex.mutual_exclusion
       (History.of_list [ acq 1; got 1; rel 1; rld 1; acq 2; got 2 ]));
  check_bool "double holding rejected" false
    (Mutex.mutual_exclusion
       (History.of_list [ acq 1; got 1; acq 2; got 2 ]));
  check_bool "release by non-holder rejected" false
    (Mutex.mutual_exclusion (History.of_list [ acq 1; got 1; rel 2; rld 2 ]))

(* ------------------------------------------------------------------ *)
(* I(1,2) over the register-built snapshot.                            *)

let total_commits h =
  List.fold_left (fun acc (_, c) -> acc + c) 0 (Slx_tm.Tm_adversary.commits h)

let test_i12_reg_lemma_5_4 () =
  (* Lemma 5.4's S' with the snapshot assumption discharged. *)
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:3
          ~factory:(Slx_tm.I12_reg.factory ~vars:2)
          ~driver:(Slx_tm.Tm_workload.random ~seed ())
          ~max_steps:250 ()
      in
      check_bool
        (Printf.sprintf "S' holds (seed %d)" seed)
        true
        (Slx_tm.S_prime.check_final r.Run_report.history))
    [ 1; 2; 3 ]

let test_i12_reg_two_active_commit () =
  let r =
    Runner.run ~n:3
      ~factory:(Slx_tm.I12_reg.factory ~vars:2)
      ~driver:
        (Driver.with_crashes [ (0, 3) ]
           (Slx_tm.Tm_workload.random ~procs:[ 1; 2 ] ~seed:5 ()))
      ~max_steps:800 ()
  in
  check_bool "commits with two active" true (total_commits r.Run_report.history > 0);
  check_bool "(1,2)-freedom" true
    (Freedom.holds ~good:Slx_tm.Tm_type.good r (Freedom.make ~l:1 ~k:2))

let test_i12_reg_three_way_starves () =
  let r =
    Slx_tm.Tm_adversary.run_three_way
      ~factory:(Slx_tm.I12_reg.factory ~vars:2)
      ~max_steps:1500
  in
  check_bool "(1,3)-freedom violated" false
    (Freedom.holds ~good:Slx_tm.Tm_type.good r (Freedom.make ~l:1 ~k:3))

(* ------------------------------------------------------------------ *)
(* k-set agreement.                                                    *)

let propose_own =
  Slx_consensus.Consensus_type.propose_forever

let test_kset_checker_units () =
  let open Slx_consensus in
  let inv p v = Event.Invocation (p, Consensus_type.Propose v) in
  let res p v = Event.Response (p, Consensus_type.Decided v) in
  let h =
    History.of_list [ inv 1 0; inv 2 1; inv 3 2; res 1 0; res 2 1; res 3 0 ]
  in
  check_bool "two distinct decisions pass 2-set" true (Kset.check ~k:2 h);
  check_bool "two distinct decisions fail 1-set" false (Kset.check ~k:1 h);
  check_bool "validity inherited" false
    (Kset.check ~k:3 (History.of_list [ inv 1 0; res 1 9 ]));
  check_int "group partition" 0 (Kset.group_of ~k:2 1);
  check_int "group partition 2" 1 (Kset.group_of ~k:2 2);
  check_int "group partition 3" 0 (Kset.group_of ~k:2 3)

let test_kset_grouped_safe () =
  let open Slx_consensus in
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:4
          ~factory:(Kset.grouped_factory ~k:2 ())
          ~driver:(Driver.random ~seed ~workload:propose_own ())
          ~max_steps:800 ()
      in
      check_bool
        (Printf.sprintf "2-set agreement (seed %d)" seed)
        true
        (Kset.check ~k:2 r.Run_report.history))
    [ 1; 2; 3; 4; 5 ]

let test_kset_can_exceed_consensus () =
  (* With k = 2 and proposers in different groups, two distinct values
     are actually decided: k-set agreement is genuinely weaker. *)
  let open Slx_consensus in
  (* NB: a round-robin driver would be lockstep within each group and
     decide nothing — the consensus pathology again; random schedules
     decide. *)
  let r =
    Runner.run ~n:4
      ~factory:(Kset.grouped_factory ~k:2 ())
      ~driver:(Driver.random ~seed:13 ~workload:propose_own ())
      ~max_steps:800 ()
  in
  let decided =
    List.sort_uniq Int.compare
      (List.map snd (Consensus_adversary.decisions r.Run_report.history))
  in
  check_bool "at least one decision" true (decided <> []);
  check_bool "no more than two values" true (List.length decided <= 2)

let test_kset_in_group_lockstep_starves_group () =
  let open Slx_consensus in
  (* p1 and p3 share group 0 under k = 2, n = 4: the lockstep adversary
     inside the group keeps both undecided, exactly as for consensus. *)
  let r =
    Runner.run ~n:4
      ~factory:(Kset.grouped_factory ~k:2 ())
      ~driver:
        (Driver.with_crashes
           [ (0, 2); (0, 4) ]
           (Consensus_adversary.lockstep ~pair:(1, 3) ()))
      ~max_steps:1500 ()
  in
  check_bool "no decision in the starved group" true
    (Consensus_adversary.decisions r.Run_report.history = []);
  check_bool "safety holds" true (Kset.check ~k:2 r.Run_report.history);
  check_bool "fair" true (Fairness.is_bounded_fair r);
  check_bool "(1,2)-freedom violated for k-set too" false
    (Freedom.holds ~good:Consensus_type.good r (Freedom.make ~l:1 ~k:2))


(* ------------------------------------------------------------------ *)
(* The Bakery lock: starvation-freedom is implementable for mutexes.   *)

let test_bakery_mutual_exclusion () =
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:3 ~factory:(Bakery.factory ())
          ~driver:(Mutex.random_workload ~seed ())
          ~max_steps:600 ()
      in
      check_bool
        (Printf.sprintf "mutual exclusion (seed %d)" seed)
        true
        (Mutex.mutual_exclusion r.Run_report.history))
    [ 1; 2; 3; 4 ]

let test_bakery_starvation_free_under_fair_scheduling () =
  (* Round-robin: every process acquires within the window -
     starvation-freedom (= wait-freedom on acquires), which the TAS
     lock cannot provide. *)
  let r =
    Runner.run ~n:3 ~factory:(Bakery.factory ())
      ~driver:(Mutex.workload ())
      ~max_steps:1200 ()
  in
  check_bool "fair" true (Fairness.is_bounded_fair r);
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "p%d acquires in the window" p)
        true
        (Run_report.makes_progress ~good:Mutex.good r p))
    [ 1; 2; 3 ];
  check_bool "starvation-freedom ((n,n) on acquires) holds" true
    (Freedom.holds ~good:Mutex.good r (Freedom.wait_freedom ~n:3))

let test_bakery_defeats_starvation_adversary () =
  (* The TAS starvation scheduler starves p1 of the LOCK only by
     starving it of STEPS: against the Bakery's FIFO discipline the
     resulting run is unfair, so it is no exclusion witness (claim
     E13.2 of the paper-claims ledger); it stays mutually exclusive. *)
  let r = Mutex.run_starvation ~factory:(Bakery.factory ()) ~max_steps:800 in
  check_bool "mutual exclusion regardless" true
    (Mutex.mutual_exclusion r.Run_report.history)

let test_bakery_solo () =
  let r =
    Runner.run ~n:3 ~factory:(Bakery.factory ())
      ~driver:
        (Driver.with_crashes
           [ (0, 2); (0, 3) ]
           (Mutex.workload ~procs:[ 1 ] ()))
      ~max_steps:300 ()
  in
  check_bool "solo acquires repeatedly" true
    (List.assoc 1 (Mutex.acquisitions r.Run_report.history) > 2)

let prop_bakery_safe =
  QCheck2.Test.make ~name:"Bakery preserves mutual exclusion" ~count:15
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r =
        Runner.run ~n:3 ~factory:(Bakery.factory ())
          ~driver:(Mutex.random_workload ~seed ())
          ~max_steps:400 ()
      in
      Mutex.mutual_exclusion r.Run_report.history)


(* ------------------------------------------------------------------ *)
(* Peterson's two-process lock.                                        *)

let test_peterson_mutual_exclusion () =
  List.iter
    (fun seed ->
      let r =
        Runner.run ~n:2 ~factory:(Peterson.factory ())
          ~driver:(Mutex.random_workload ~seed ())
          ~max_steps:400 ()
      in
      check_bool
        (Printf.sprintf "mutual exclusion (seed %d)" seed)
        true
        (Mutex.mutual_exclusion r.Run_report.history))
    [ 1; 2; 3; 4; 5 ]

let test_peterson_starvation_free_when_fair () =
  let r =
    Runner.run ~n:2 ~factory:(Peterson.factory ())
      ~driver:(Mutex.workload ())
      ~max_steps:800 ()
  in
  check_bool "fair" true (Fairness.is_bounded_fair r);
  check_bool "both acquire in the window" true
    (Freedom.holds ~good:Mutex.good r (Freedom.wait_freedom ~n:2))

let test_peterson_defeats_starvation_adversary () =
  let r = Mutex.run_starvation ~factory:(Peterson.factory ()) ~max_steps:600 in
  let p1_starved = List.assoc 1 (Mutex.acquisitions r.Run_report.history) = 0 in
  check_bool "no fair starvation of Peterson" false
    (p1_starved && Fairness.is_bounded_fair r)


(* ------------------------------------------------------------------ *)
(* The CAS queue (FIFO).                                               *)

module Queue_lin = Slx_safety.Linearizability.Make (Queue_type.Self)

let queue_workload : (Queue_type.invocation, Queue_type.response) Driver.workload =
  Driver.n_times 4 (fun p k ->
      if k mod 2 = 0 then Queue_type.Enqueue ((p * 100) + k)
      else Queue_type.Dequeue)

let run_queue ~seed ~n =
  Runner.run ~n ~factory:(Cas_queue.factory ())
    ~driver:(Driver.random ~seed ~workload:queue_workload ())
    ~max_steps:600 ()

let test_queue_sequential_fifo () =
  let r =
    Runner.run ~n:1 ~factory:(Cas_queue.factory ())
      ~driver:
        (Driver.solo 1
           ~workload:
             (Driver.n_times 4 (fun _ k ->
                  match k with
                  | 0 -> Queue_type.Enqueue 1
                  | 1 -> Queue_type.Enqueue 2
                  | 2 -> Queue_type.Dequeue
                  | _ -> Queue_type.Dequeue)))
      ~max_steps:200 ()
  in
  check_bool "FIFO order" true
    (History.responses_of r.Run_report.history 1
    = [ Queue_type.Enqueued; Queue_type.Enqueued; Queue_type.Dequeued 1;
        Queue_type.Dequeued 2 ])

let test_queue_linearizable_under_contention () =
  List.iter
    (fun seed ->
      let r = run_queue ~seed ~n:3 in
      check_bool
        (Printf.sprintf "linearizable (seed %d)" seed)
        true
        (Queue_lin.check r.Run_report.history))
    [ 1; 2; 3; 4 ]

let test_fifo_vs_lifo_discipline () =
  (* The same event pattern is queue-legal but not stack-legal: two
     inserts then a removal returning the FIRST item. *)
  let fifo_h =
    History.of_list
      [
        Event.Invocation (1, Queue_type.Enqueue 1);
        Event.Response (1, Queue_type.Enqueued);
        Event.Invocation (1, Queue_type.Enqueue 2);
        Event.Response (1, Queue_type.Enqueued);
        Event.Invocation (2, Queue_type.Dequeue);
        Event.Response (2, Queue_type.Dequeued 1);
      ]
  in
  check_bool "queue accepts FIFO removal" true (Queue_lin.check fifo_h);
  let lifo_h =
    History.of_list
      [
        Event.Invocation (1, Stack_type.Push 1);
        Event.Response (1, Stack_type.Pushed);
        Event.Invocation (1, Stack_type.Push 2);
        Event.Response (1, Stack_type.Pushed);
        Event.Invocation (2, Stack_type.Pop);
        Event.Response (2, Stack_type.Popped 1);
      ]
  in
  check_bool "stack rejects FIFO removal" false (Stack_lin.check lifo_h)

let prop_queue_linearizable =
  QCheck2.Test.make ~name:"CAS queue is linearizable" ~count:12
    QCheck2.Gen.(int_range 0 1000)
    (fun seed -> Queue_lin.check (run_queue ~seed ~n:2).Run_report.history)

let suites =
  [
    ( "objects-snapshot",
      [
        quick "solo semantics" test_snapshot_solo_semantics;
        quick "wait-free" test_snapshot_wait_free;
        quick "linearizable" test_snapshot_linearizable;
      ]
      @ qcheck [ prop_snapshot_linearizable ] );
    ( "objects-stack",
      [
        quick "sequential LIFO" test_stack_sequential;
        quick "pop empty" test_stack_empty;
        quick "linearizable under contention" test_stack_linearizable_under_contention;
        quick "lock-free" test_stack_lock_free;
      ]
      @ qcheck [ prop_stack_linearizable ] );
    ( "objects-queue",
      [
        quick "sequential FIFO" test_queue_sequential_fifo;
        quick "linearizable under contention" test_queue_linearizable_under_contention;
        quick "FIFO vs LIFO discipline" test_fifo_vs_lifo_discipline;
      ]
      @ qcheck [ prop_queue_linearizable ] );
    ( "objects-mutex",
      [
        quick "solo" test_mutex_solo;
        quick "fair schedules safe" test_mutex_fair_schedules_safe;
        quick "starvation adversary" test_mutex_starvation_adversary;
        quick "safety checker units" test_mutex_safety_checker_units;
        quick "bakery mutual exclusion" test_bakery_mutual_exclusion;
        quick "bakery starvation-free when fair"
          test_bakery_starvation_free_under_fair_scheduling;
        quick "bakery defeats the starvation adversary"
          test_bakery_defeats_starvation_adversary;
        quick "bakery solo" test_bakery_solo;
        quick "peterson mutual exclusion" test_peterson_mutual_exclusion;
        quick "peterson starvation-free when fair"
          test_peterson_starvation_free_when_fair;
        quick "peterson defeats the starvation adversary"
          test_peterson_defeats_starvation_adversary;
      ]
      @ qcheck [ prop_bakery_safe ] );
    ( "tm-i12-from-registers",
      [
        quick "Lemma 5.4 with snapshot discharged" test_i12_reg_lemma_5_4;
        quick "two active commit" test_i12_reg_two_active_commit;
        quick "three-way adversary starves" test_i12_reg_three_way_starves;
      ] );
    ( "kset",
      [
        quick "checker units" test_kset_checker_units;
        quick "grouped implementation safe" test_kset_grouped_safe;
        quick "genuinely weaker than consensus" test_kset_can_exceed_consensus;
        quick "in-group lockstep starves" test_kset_in_group_lockstep_starves_group;
      ] );
  ]
