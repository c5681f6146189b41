(* Driver combinators and Run_report accessors: the plumbing that
   every experiment stands on. *)

open Slx_history
open Slx_sim
open Support

type cinv = Tick
type cres = Tock

let factory () : (cinv, cres) Runner.factory =
 fun ~n:_ ->
  let r = Slx_base_objects.Register.make 0 in
  fun ~proc:_ Tick ->
    Slx_base_objects.Register.write r 1;
    Tock

let workload : (cinv, cres) Driver.workload = Driver.forever (fun _ -> Tick)

let test_forever_and_n_times () =
  check_bool "forever never runs out" true
    (Driver.forever (fun p -> p) 2 1_000_000 = Some 2);
  let w = Driver.n_times 2 (fun p k -> (p, k)) in
  check_bool "n_times counts" true
    (w 1 0 = Some (1, 0) && w 1 1 = Some (1, 1) && w 1 2 = None)

let test_with_crashes_exact_time () =
  let driver =
    Driver.with_crashes [ (5, 2); (9, 1) ] (Driver.round_robin ~workload ())
  in
  let r = Runner.run ~n:2 ~factory:(factory ()) ~driver ~max_steps:30 () in
  check_bool "both crashed" true
    (Proc.Set.equal r.Run_report.crashed (Proc.Set.of_list [ 1; 2 ]));
  (* Crash events appear in the history at (or just after) their
     scheduled times. *)
  let crash_times =
    List.filteri
      (fun i _ -> Event.is_crash (History.nth r.Run_report.history i))
      (List.init (History.length r.Run_report.history) (fun i -> i))
    |> List.map (fun i -> r.Run_report.event_times.(i))
  in
  check_bool "crashes at their scheduled ticks" true
    (List.for_all (fun t -> t = 5 || t = 9) crash_times)

let test_with_crashes_skips_dead () =
  (* Injecting a crash for an already-crashed process must be dropped,
     not raised. *)
  let driver =
    Driver.with_crashes
      [ (2, 1); (4, 1) ]
      (Driver.round_robin ~workload ())
  in
  let r = Runner.run ~n:2 ~factory:(factory ()) ~driver ~max_steps:20 () in
  check_int "exactly one crash event" 1
    (History.count Event.is_crash r.Run_report.history)

let test_stop_after_beats_underlying () =
  let driver = Driver.stop_after 3 (Driver.round_robin ~workload ()) in
  let r = Runner.run ~n:1 ~factory:(factory ()) ~driver ~max_steps:50 () in
  check_int "exactly three ticks" 3 r.Run_report.total_time;
  check_bool "reported as driver stop" true
    (r.Run_report.stopped = `Driver_stop || r.Run_report.stopped = `Quiescent)

let test_of_script_stops_at_end () =
  let driver = Driver.of_script [ Driver.Invoke (1, Tick); Driver.Schedule 1 ] in
  let r = Runner.run ~n:1 ~factory:(factory ()) ~driver ~max_steps:50 () in
  check_int "two ticks then stop" 2 r.Run_report.total_time

let test_round_robin_skips_exhausted () =
  (* p1 has one op, p2 has three: round robin must keep p2 going after
     p1 finishes. *)
  let w = Driver.n_times 1 (fun _ _ -> Tick) in
  let w2 p k = if p = 2 then Driver.n_times 3 (fun _ _ -> Tick) p k else w p k in
  let r =
    Runner.run ~n:2 ~factory:(factory ())
      ~driver:(Driver.round_robin ~workload:w2 ())
      ~max_steps:50 ()
  in
  check_int "p1 one response" 1
    (List.length (History.responses_of r.Run_report.history 1));
  check_int "p2 three responses" 3
    (List.length (History.responses_of r.Run_report.history 2));
  check_bool "quiescent" true (r.Run_report.stopped = `Quiescent)

let test_run_report_accessors () =
  let r =
    Runner.run ~n:2 ~factory:(factory ())
      ~driver:(Driver.round_robin ~workload ())
      ~max_steps:20 ~window:10 ()
  in
  check_int "window honoured" 10 r.Run_report.window;
  check_int "window start" 10 (Run_report.window_start r);
  check_bool "in_window boundaries" true
    (Run_report.in_window r 10
    && Run_report.in_window r 19
    && (not (Run_report.in_window r 9))
    && not (Run_report.in_window r 20));
  check_bool "steps split consistent" true
    (Run_report.steps_in_window r 1 <= Run_report.steps_total r 1);
  check_bool "responses in window subset of all" true
    (List.length (Run_report.responses_in_window r 1)
    <= List.length (History.responses_of r.Run_report.history 1))

let test_report_pp_smoke () =
  let r =
    Runner.run ~n:2 ~factory:(factory ())
      ~driver:(Driver.round_robin ~workload ())
      ~max_steps:12 ()
  in
  let s =
    Format.asprintf "%a"
      (Run_report.pp
         ~pp_inv:(fun fmt Tick -> Format.pp_print_string fmt "tick")
         ~pp_res:(fun fmt Tock -> Format.pp_print_string fmt "tock"))
      r
  in
  check_bool "pp mentions steps" true
    (String.length s > 0
    &&
    let has_sub sub =
      let rec go i =
        i + String.length sub <= String.length s
        && (String.sub s i (String.length sub) = sub || go (i + 1))
      in
      go 0
    in
    has_sub "steps" && has_sub "tick")

(* [Driver.fold_procs], read after some appends and not others, agrees
   with folding each process's projected history from scratch. *)
let prop_fold_procs_matches_projection =
  QCheck2.Test.make ~name:"fold_procs agrees with the projection" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (triple (int_range 1 3) (int_range 0 2) bool))
    (fun appends ->
      let n = 3 in
      let read = Driver.fold_procs ~init:[] (fun acc e -> e :: acc) () in
      let view history : (cinv, cres) Driver.view =
        {
          Driver.time = 0;
          n;
          history;
          status = (fun _ -> Runtime.Idle);
          steps = (fun _ -> 0);
          invocations = (fun _ -> 0);
          events = (fun _ -> 0);
        }
      in
      let event p = function
        | 0 -> Event.Invocation (p, Tick)
        | 1 -> Event.Response (p, Tock)
        | _ -> Event.Crash p
      in
      let agrees h p =
        List.rev (read (view h) p) = History.to_list (History.project h p)
      in
      snd
        (List.fold_left
           (fun (h, ok) (p, kind, now) ->
             let h = History.append h (event p kind) in
             (h, ok && ((not now) || List.for_all (agrees h) (Proc.all ~n))))
           (History.empty, true) appends))

let suites =
  [
    ( "drivers",
      [
        quick "forever and n_times" test_forever_and_n_times;
        quick "with_crashes exact time" test_with_crashes_exact_time;
        quick "with_crashes skips dead" test_with_crashes_skips_dead;
        quick "stop_after" test_stop_after_beats_underlying;
        quick "of_script stops" test_of_script_stops_at_end;
        quick "round robin skips exhausted" test_round_robin_skips_exhausted;
        quick "run report accessors" test_run_report_accessors;
        quick "report pp smoke" test_report_pp_smoke;
      ]
      @ qcheck [ prop_fold_procs_matches_projection ] );
  ]
