(* Failure injection: crash processes at arbitrary points and check
   that every implementation keeps its safety property, that crashed
   processes never act again, and that the liveness machinery's
   fewer-correct-than-l branch behaves. *)

open Slx_history
open Slx_sim
open Slx_liveness
open Support

let propose_own =
  Slx_consensus.Consensus_type.propose_forever

(* Crash schedule: [victims] at staggered times derived from [at]. *)
let crashes ~at victims = List.mapi (fun i p -> (at + (7 * i), p)) victims

let no_events_after_crash r =
  let crash_time p =
    let rec find i = function
      | [] -> None
      | Event.Crash q :: _ when q = p -> Some r.Run_report.event_times.(i)
      | _ :: rest -> find (i + 1) rest
    in
    find 0 (History.to_list r.Run_report.history)
  in
  Proc.Set.for_all
    (fun p ->
      match crash_time p with
      | None -> true
      | Some t ->
          List.for_all (fun (t', q) -> q <> p || t' <= t) r.Run_report.grants)
    r.Run_report.crashed

(* ------------------------------------------------------------------ *)
(* Consensus under crashes.                                            *)

let test_consensus_crash_mid_round () =
  List.iter
    (fun at ->
      let r =
        Runner.run ~n:3
          ~factory:(Slx_consensus.Register_consensus.factory ())
          ~driver:
            (Driver.with_crashes (crashes ~at [ 2 ])
               (Driver.random ~seed:at ~workload:propose_own ()))
          ~max_steps:500 ()
      in
      check_bool
        (Printf.sprintf "safety with crash at %d" at)
        true
        (Slx_consensus.Consensus_safety.check r.Run_report.history);
      check_bool "crashed process stops" true (no_events_after_crash r))
    [ 3; 11; 25; 60 ]

let test_consensus_survivor_decides () =
  (* Crash all but p1 mid-run: the survivor must still decide
     (obstruction-freedom under real crashes, not just quiet
     schedules). *)
  let r =
    Runner.run ~n:3
      ~factory:(Slx_consensus.Register_consensus.factory ())
      ~driver:
        (Driver.with_crashes
           (crashes ~at:9 [ 2; 3 ])
           (Driver.random ~seed:4 ~workload:propose_own ()))
      ~max_steps:600 ()
  in
  check_bool "the survivor decides" true
    (List.exists
       (fun (p, _) -> p = 1)
       (Slx_consensus.Consensus_adversary.decisions r.Run_report.history));
  check_bool "(1,1)-freedom holds" true
    (Freedom.holds
       ~good:Slx_consensus.Consensus_type.good
       r Freedom.obstruction_freedom)

let test_fewer_correct_than_l_branch () =
  (* With two of three crashed, (3,3)-freedom's second branch applies:
     ALL correct processes must progress — here the lone survivor
     does, so the property holds despite only one process total
     progressing. *)
  let r =
    Runner.run ~n:3
      ~factory:(Slx_consensus.Cas_consensus.factory ())
      ~driver:
        (Driver.with_crashes
           (crashes ~at:0 [ 2; 3 ])
           (Driver.random ~seed:2 ~workload:propose_own ()))
      ~max_steps:200 ()
  in
  check_bool "(3,3)-freedom holds via the all-correct branch" true
    (Freedom.holds
       ~good:Slx_consensus.Consensus_type.good
       r
       (Freedom.wait_freedom ~n:3))

(* ------------------------------------------------------------------ *)
(* TM under crashes.                                                   *)

let test_tm_crash_mid_transaction () =
  (* A process crashing with an open transaction leaves it live; the
     completion machinery must still find the history opaque, and
     other processes must keep committing. *)
  List.iter
    (fun (seed, at) ->
      let r =
        Runner.run ~n:3 ~factory:(Slx_tm.I12.factory ~vars:2)
          ~driver:
            (Driver.with_crashes (crashes ~at [ 2 ])
               (Slx_tm.Tm_workload.random ~seed ()))
          ~max_steps:250 ()
      in
      check_bool
        (Printf.sprintf "opacity with crash (seed %d at %d)" seed at)
        true
        (Slx_tm.Opacity.check_final r.Run_report.history);
      check_bool "S' too" true
        (Slx_tm.S_prime.check_final r.Run_report.history))
    [ (1, 5); (2, 13); (3, 31); (4, 50) ]

let test_tm_survivors_commit () =
  let r =
    Runner.run ~n:3 ~factory:(Slx_tm.Agp_tm.factory ~vars:1)
      ~driver:
        (Driver.with_crashes (crashes ~at:20 [ 3 ])
           (Slx_tm.Tm_workload.random ~seed:8 ()))
      ~max_steps:400 ()
  in
  let commits = Slx_tm.Tm_adversary.commits r.Run_report.history in
  let survivors_commit =
    List.exists (fun (p, c) -> p <> 3 && c > 0) commits
  in
  check_bool "survivors keep committing" true survivors_commit;
  check_bool "lock-freedom holds among survivors" true
    (Freedom.holds ~good:Slx_tm.Tm_type.good r (Freedom.lock_freedom ~n:3))

(* ------------------------------------------------------------------ *)
(* Mutex under crashes: the TAS lock is NOT crash-robust — a holder
   crashing inside its critical section leaves the lock set forever.
   The test documents exactly that failure mode.                       *)

let test_mutex_holder_crash_blocks () =
  let open Slx_objects in
  (* Let p1 acquire, then crash it; p2 can never acquire. *)
  let driver view =
    match view.Driver.time with
    | t ->
        if Proc.Set.mem 1 (History.crashed view.Driver.history) then
          (* After the crash: p2 tries forever. *)
          match view.Driver.status 2 with
          | Runtime.Ready -> Driver.Schedule 2
          | Runtime.Idle -> Driver.Invoke (2, Mutex.Acquire)
          | Runtime.Crashed -> Driver.Stop
        else if t = 0 then Driver.Invoke (1, Mutex.Acquire)
        else
          match view.Driver.status 1 with
          | Runtime.Ready -> Driver.Schedule 1
          | Runtime.Idle -> Driver.Crash 1 (* holding the lock *)
          | Runtime.Crashed -> Driver.Stop
  in
  let r =
    Runner.run ~n:2 ~factory:(Mutex.tas_factory ()) ~driver ~max_steps:200 ()
  in
  check_bool "p1 acquired then crashed" true
    (List.assoc 1 (Mutex.acquisitions r.Run_report.history) = 1
    && Proc.Set.mem 1 r.Run_report.crashed);
  check_int "p2 never acquires: locks are blocking" 0
    (List.assoc 2 (Mutex.acquisitions r.Run_report.history));
  check_bool "mutual exclusion trivially preserved" true
    (Mutex.mutual_exclusion r.Run_report.history);
  (* This is the non-blocking/blocking divide the paper's footnote
     draws: the crashed holder prevents others' progress, which no
     (l,k)-freedom point tolerates. *)
  check_bool "(1,2)-freedom violated by the blocked survivor" false
    (Freedom.holds ~good:Slx_objects.Mutex.good r (Freedom.make ~l:1 ~k:2))

(* Property test: random crash storms never break safety anywhere. *)
let prop_crash_storm_safety =
  QCheck2.Test.make ~name:"crash storms never break safety" ~count:20
    QCheck2.Gen.(pair (int_range 0 500) (int_range 1 40))
    (fun (seed, at) ->
      let consensus =
        Runner.run ~n:3
          ~factory:(Slx_consensus.Register_consensus.factory ())
          ~driver:
            (Driver.with_crashes
               (crashes ~at [ ((seed mod 3) + 1) ])
               (Driver.random ~seed ~workload:propose_own ()))
          ~max_steps:300 ()
      in
      let tm =
        Runner.run ~n:3 ~factory:(Slx_tm.Agp_tm.factory ~vars:1)
          ~driver:
            (Driver.with_crashes
               (crashes ~at [ ((seed mod 3) + 1) ])
               (Slx_tm.Tm_workload.random ~seed ()))
          ~max_steps:160 ()
      in
      Slx_consensus.Consensus_safety.check consensus.Run_report.history
      && Slx_tm.Opacity.check_final tm.Run_report.history)

let suites =
  [
    ( "failure-injection",
      [
        quick "consensus crash mid-round" test_consensus_crash_mid_round;
        quick "consensus survivor decides" test_consensus_survivor_decides;
        quick "fewer-correct-than-l branch" test_fewer_correct_than_l_branch;
        quick "TM crash mid-transaction" test_tm_crash_mid_transaction;
        quick "TM survivors commit" test_tm_survivors_commit;
        quick "mutex holder crash blocks" test_mutex_holder_crash_blocks;
      ]
      @ qcheck [ prop_crash_storm_safety ] );
  ]
