(* The observability subsystem (Slx_obs): ring sinks, the JSON reader,
   Chrome-trace export/validation, progress heartbeats — and the
   contract that matters most: tracing never changes what an engine
   computes. *)

open Slx_core
open Support
module Telemetry = Slx_obs.Telemetry
module Progress = Slx_obs.Progress
module Obs = Slx_obs.Obs
module Json = Slx_obs.Json
module Trace_export = Slx_obs.Trace_export

let ev ns kind a b =
  { Telemetry.ev_ns = ns; ev_kind = kind; ev_a = a; ev_b = b }

(* The code of the decision that schedules process 1: ["S1"]. *)
let s1 = Explore.code_of_decision (Slx_sim.Driver.Schedule 1)

(* ------------------------------------------------------------------ *)
(* Ring sinks.                                                         *)

let test_ring_wraparound () =
  let r = Telemetry.ring ~capacity:4 () in
  let sink = Telemetry.sink_of_ring r in
  for i = 1 to 10 do
    Telemetry.emit sink Telemetry.Run_checked i 0
  done;
  check_int "overflow is accounted as drops" 6 (Telemetry.ring_dropped r);
  let events = Telemetry.ring_events r in
  check_int "the ring retains capacity events" 4 (List.length events);
  check_int "every emission is counted" 10
    (Telemetry.ring_dropped r + List.length events);
  Alcotest.(check (list int))
    "oldest events are the ones overwritten" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Telemetry.ev_a) events);
  let rec monotone = function
    | a :: (b :: _ as tl) ->
        check_bool "timestamps are non-decreasing" true
          (a.Telemetry.ev_ns <= b.Telemetry.ev_ns);
        monotone tl
    | _ -> ()
  in
  monotone events

let test_ring_below_capacity () =
  let r = Telemetry.ring ~capacity:8 () in
  let sink = Telemetry.sink_of_ring r in
  for i = 1 to 5 do
    Telemetry.emit sink Telemetry.Cache_hit i (10 * i)
  done;
  check_int "no drops below capacity" 0 (Telemetry.ring_dropped r);
  check_int "all events retained" 5 (List.length (Telemetry.ring_events r));
  check_bool "ring sinks are enabled" true (Telemetry.enabled sink);
  check_bool "the null sink is disabled" false (Telemetry.enabled Telemetry.null);
  (* Emitting into the null sink must be a no-op (and not crash). *)
  Telemetry.emit Telemetry.null Telemetry.Cache_hit 1 2

(* A [Decision] event carries the engines' decision code; a trace
   prints it in the witness scripts' notation and reads it back. *)
let test_dec_codes () =
  List.iter
    (fun (d, printed) ->
      let code = Explore.code_of_decision d in
      let events = [ ev 0 Telemetry.Decision 1 code ] in
      let text = Trace_export.to_string ~events_dropped:0 events in
      let line = Printf.sprintf {|"decision": "%s"|} printed in
      check_bool printed true
        (List.exists
           (fun l -> String.ends_with ~suffix:(line ^ "}}") l)
           (String.split_on_char '\n' text));
      check_bool (printed ^ " reads back") true
        (Result.map (fun t -> t.Trace_export.events) (Trace_export.read text)
        = Ok events))
    [
      (Slx_sim.Driver.Schedule 1, "S1");
      (Slx_sim.Driver.Invoke (2, ()), "I2");
      (Slx_sim.Driver.Crash 3, "C3");
    ]

(* ------------------------------------------------------------------ *)
(* The minimal JSON reader.                                            *)

let test_json_parses_values () =
  (match Json.parse "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": true, \"d\": null}}" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      check_int "array int" 1
        (Option.get
           (Json.int (List.nth (Json.to_list (Option.get (Json.member "a" j))) 0)));
      Alcotest.(check (float 1e-9))
        "array float" 2.5
        (Option.get
           (Json.num (List.nth (Json.to_list (Option.get (Json.member "a" j))) 1)));
      Alcotest.(check string)
        "nested string" "x"
        (Option.get
           (Json.str (List.nth (Json.to_list (Option.get (Json.member "a" j))) 2)));
      check_bool "nested bool" true
        (Option.get (Json.member "b" j) |> Json.member "c"
        = Some (Json.Bool true)));
  match Json.parse "\"a\\n\\\"b\\\\c\\u0041\"" with
  | Error e -> Alcotest.failf "escape parse failed: %s" e
  | Ok j ->
      Alcotest.(check string) "escapes decode" "a\n\"b\\cA" (Option.get (Json.str j))

let test_json_rejects_garbage () =
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parser accepted %S" s
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "1 2";
  bad "nul";
  bad "\"unterminated";
  bad "-";
  bad "1-2"

(* 63-bit history digests cross the serve worker pipe as JSON: an
   integer literal must come back exactly, and re-serialize to itself. *)
let test_json_exact_ints () =
  let text =
    "[3784237809352984055, -4611686018427387904, 4611686018427387903, 0, \
     1.5, 2.0, 1e3, 99999999999999999999]"
  in
  match Json.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      let xs = Json.to_list j in
      List.iter2
        (fun x want -> check_bool (string_of_int want) true (Json.int x = Some want))
        (List.filteri (fun i _ -> i < 4) xs)
        [ 3784237809352984055; min_int; max_int; 0 ];
      check_bool "fractions stay floats" true
        (List.nth xs 4 = Json.Num 1.5 && List.nth xs 5 = Json.Num 2.0
        && List.nth xs 6 = Json.Num 1000.);
      check_bool "too wide for int: a float" true
        (List.nth xs 7 = Json.Num 1e20);
      check_bool "exact ints read as floats too" true
        (Json.num (List.nth xs 0) = Some 3784237809352984055.);
      check_bool "to_string round-trips" true
        (Json.parse (Json.to_string j) = Ok j);
      Alcotest.(check string)
        "digest printed exactly" "3784237809352984055"
        (Json.to_string (List.nth xs 0))

(* A float prints with the fewest digits that read back as itself. *)
let test_json_short_floats () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check string) want want (Json.to_string (Json.Num f)))
    [ (0.1, "0.1"); (-0.1, "-0.1"); (1e-6, "1e-06"); (0.3, "0.3");
      (0.1 +. 0.2, "0.30000000000000004"); (2.5, "2.5") ]

let prop_json_floats_round_trip =
  QCheck2.Test.make ~name:"a finite float round-trips through to_string"
    ~count:2000
    QCheck2.Gen.(
      oneof
        [
          float;
          map2 (fun m e -> float_of_int m /. (10. ** float_of_int e))
            (int_range (-100_000) 100_000) (int_range 0 12);
        ])
    (fun f ->
      let f = if Float.is_finite f then f else 0. in
      let s = Json.to_string (Json.Num f) in
      Json.parse s = Ok (Json.Num f)
      && (Float.is_integer f
         || String.length s <= String.length (Printf.sprintf "%.17g" f)))

(* ------------------------------------------------------------------ *)
(* Chrome-trace export and reading back.                              *)

let count_kind events k =
  List.length (List.filter (fun e -> e.Telemetry.ev_kind = k) events)

(* [events] with times counted from [t0]. *)
let from t0 events =
  List.map (fun e -> { e with Telemetry.ev_ns = e.Telemetry.ev_ns - t0 }) events

(* [Trace_export.read] of a written trace, or the test fails. *)
let read_back ?(events_dropped = 0) what events =
  match
    Trace_export.read (Trace_export.to_string ~events_dropped events)
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: trace does not read back: %s" what e

let test_trace_export_well_formed () =
  let events =
    [
      ev 100 Telemetry.Node_enter 0 0;
      ev 110 Telemetry.Decision 1 s1;
      ev 120 Telemetry.Node_enter 1 0;
      ev 130 Telemetry.Cache_hit 1 3;
      ev 140 Telemetry.Node_leave 1 0;
      ev 150 Telemetry.Por_sleep 1 1;
      ev 160 Telemetry.Run_checked 3 0;
      ev 170 Telemetry.Pump_start 2 0;
      ev 180 Telemetry.Pump_verdict 2 1;
      ev 190 Telemetry.Node_leave 0 0;
    ]
  in
  let t = read_back ~events_dropped:5 "well-formed" events in
  let got = t.Trace_export.events in
  check_int "all events survive the round trip" 10 (List.length got);
  check_int "node spans balance" 2 (count_kind got Telemetry.Node_leave);
  check_int "pump spans balance" 1 (count_kind got Telemetry.Pump_verdict);
  check_int "cache hit instant" 1 (count_kind got Telemetry.Cache_hit);
  check_int "dropped count survives" 5 t.Trace_export.events_dropped;
  check_bool "times start at 0" true (got = from 100 events)

(* One event of every kind, spans balanced, and the exact bytes the
   writer makes of them. *)
let every_kind =
  Telemetry.
    [
      ev 1000 Node_enter 0 0;
      ev 1250 Decision 1 s1;
      ev 1500 Run_checked 1 0;
      ev 2125 Cache_hit 1 3;
      ev 2500 Por_sleep 1 2;
      ev 2750 Race_reversal 1 1;
      ev 3010 Proviso_wake 1 2;
      ev 3333 Invoke_prune 1 1;
      ev 3600 Symmetry_prune 1 1;
      ev 4100 Cycle_candidate 2 1;
      ev 4400 Pump_start 2 0;
      ev 9450 Pump_verdict 2 1;
      ev 12345 Node_leave 0 0;
    ]

let every_kind_trace =
  {|{"traceEvents": [
{"name": "process_name", "cat": "__metadata", "ph": "M", "ts": 0.000, "pid": 1, "tid": 0, "args": {"name": "slx"}},
{"name": "thread_name", "cat": "__metadata", "ph": "M", "ts": 0.000, "pid": 1, "tid": 0, "args": {"name": "domain 0"}},
{"name": "node", "cat": "explore", "ph": "B", "ts": 0.000, "pid": 1, "tid": 0, "args": {"depth": 0}},
{"name": "decision", "cat": "explore", "ph": "i", "ts": 0.250, "pid": 1, "tid": 0, "s": "t", "args": {"depth": 1, "decision": "S1"}},
{"name": "run_checked", "cat": "explore", "ph": "i", "ts": 0.500, "pid": 1, "tid": 0, "s": "t", "args": {"depth": 1}},
{"name": "cache_hit", "cat": "cache", "ph": "i", "ts": 1.125, "pid": 1, "tid": 0, "s": "t", "args": {"depth": 1, "credited_runs": 3}},
{"name": "por_sleep", "cat": "reduce", "ph": "i", "ts": 1.500, "pid": 1, "tid": 0, "s": "t", "args": {"depth": 1, "slept": 2}},
{"name": "race_reversal", "cat": "reduce", "ph": "i", "ts": 1.750, "pid": 1, "tid": 0, "s": "t", "args": {"depth": 1, "woken": 1}},
{"name": "proviso_wake", "cat": "reduce", "ph": "i", "ts": 2.010, "pid": 1, "tid": 0, "s": "t", "args": {"depth": 1, "woken": 2}},
{"name": "invoke_prune", "cat": "reduce", "ph": "i", "ts": 2.333, "pid": 1, "tid": 0, "s": "t", "args": {"depth": 1, "pruned": 1}},
{"name": "symmetry_prune", "cat": "reduce", "ph": "i", "ts": 2.600, "pid": 1, "tid": 0, "s": "t", "args": {"depth": 1, "pruned": 1}},
{"name": "cycle_candidate", "cat": "live", "ph": "i", "ts": 3.100, "pid": 1, "tid": 0, "s": "t", "args": {"period": 2, "fair_violating": 1}},
{"name": "pump", "cat": "live", "ph": "B", "ts": 3.400, "pid": 1, "tid": 0, "args": {"period": 2}},
{"name": "pump", "cat": "live", "ph": "E", "ts": 8.450, "pid": 1, "tid": 0, "args": {"period": 2, "accepted": 1}},
{"name": "node", "cat": "explore", "ph": "E", "ts": 11.345, "pid": 1, "tid": 0, "args": {"depth": 0}}
], "displayTimeUnit": "ns", "otherData": {"events_dropped": 2}}
|}

let test_trace_export_bytes_pinned () =
  Alcotest.(check string)
    "every kind's record, byte for byte" every_kind_trace
    (Trace_export.to_string ~events_dropped:2 every_kind)

let refused what text =
  match Trace_export.read text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "the reader accepted %s" what

let test_trace_read_refuses_unbalanced () =
  let text events = Trace_export.to_string ~events_dropped:0 events in
  refused "an open span"
    (text
       [ ev 100 Telemetry.Node_enter 0 0; ev 110 Telemetry.Node_enter 1 0;
         ev 120 Telemetry.Node_leave 1 0 ]);
  refused "a span end with no open span"
    (text [ ev 100 Telemetry.Node_leave 0 0 ]);
  refused "a pump closing a node span"
    (text
       [ ev 100 Telemetry.Node_enter 0 0; ev 110 Telemetry.Pump_verdict 2 1 ])

(* [every_kind_trace] with the [n]-th occurrence (from 1) of [sub]
   replaced by [by]. *)
let edit_pinned n sub by =
  let s = every_kind_trace and m = String.length sub in
  let rec find from k =
    if String.sub s from m <> sub then find (from + 1) k
    else if k < n then find (from + 1) (k + 1)
    else from
  in
  let i = find 0 1 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (String.length s - i - m)

(* slx writes one lane, pid 1 and tid 0: a record elsewhere is not its
   own, and neither is a name, a phase or an argument it never writes. *)
let test_trace_read_refuses_foreign () =
  (match Trace_export.read every_kind_trace with
  | Ok t ->
      check_bool "the pinned trace reads back" true
        (t.Trace_export.events = from 1000 every_kind)
  | Error e -> Alcotest.failf "the pinned trace does not read: %s" e);
  List.iter
    (fun (what, n, sub, by) -> refused what (edit_pinned n sub by))
    [
      ("a trace event on another tid", 5, {|"tid": 0|}, {|"tid": 1|});
      ("a span end on another tid", 15, {|"tid": 0|}, {|"tid": 1|});
      ("another pid", 3, {|"pid": 1|}, {|"pid": 2|});
      ("an unknown name", 1, {|"run_checked"|}, {|"run_skipped"|});
      ("an unknown phase", 1, {|"ph": "i"|}, {|"ph": "X"|});
      ("a missing argument", 1, {|"slept"|}, {|"sleeping"|});
      ("a bad decision", 1, {|"S1"|}, {|"Q1"|});
      ("a missing timestamp", 4, {|"ts"|}, {|"tz"|});
      ("no dropped count", 1, {|"events_dropped"|}, {|"dropped"|});
    ]

(* Balanced event lists of every kind: instants, and node or pump spans
   around nested lists.  Kinds whose [b] a trace does not write carry
   0, and a [Decision] a valid code. *)
let gen_events =
  let open QCheck2.Gen in
  let instant =
    let* kind =
      oneofl
        Telemetry.
          [ Decision; Run_checked; Cache_hit; Por_sleep; Race_reversal;
            Proviso_wake; Invoke_prune; Symmetry_prune; Cycle_candidate ]
    in
    let* a = int_range 0 50 in
    let* b =
      match kind with
      | Telemetry.Decision ->
          map2 (fun p tag -> (p lsl 2) lor tag) (int_range 1 16) (int_range 0 2)
      | Telemetry.Run_checked -> pure 0
      | _ -> int_range 0 1000
    in
    pure [ (kind, a, b) ]
  in
  let span self size enter leave a b =
    let* inner = self (size / 2) in
    pure (((enter, a, 0) :: inner) @ [ (leave, a, b) ])
  in
  let nodes =
    fix (fun self size ->
        if size <= 0 then pure []
        else
          let* first =
            frequency
              [
                (3, instant);
                ( 1,
                  let* a = int_range 0 50 in
                  span self size Telemetry.Node_enter Telemetry.Node_leave a 0 );
                ( 1,
                  let* a = int_range 1 20 and* accepted = int_range 0 1 in
                  span self size Telemetry.Pump_start Telemetry.Pump_verdict a
                    accepted );
              ]
          in
          let* rest = self (size - 1) in
          pure (first @ rest))
  in
  let* shape = sized_size (int_range 0 30) nodes in
  let* times =
    list_repeat (List.length shape) (int_range 0 1_000_000_000_000)
  in
  pure (List.map2 (fun (k, a, b) ns -> ev ns k a b) shape times)

let prop_trace_round_trip =
  QCheck2.Test.make ~name:"read (to_string events) = events, from time 0"
    ~count:300 gen_events (fun events ->
      let t0 =
        List.fold_left (fun m e -> min m e.Telemetry.ev_ns) max_int events
      in
      Trace_export.read (Trace_export.to_string ~events_dropped:7 events)
      = Ok { Trace_export.events = from t0 events; events_dropped = 7 })

(* ------------------------------------------------------------------ *)
(* Tracing through the engines: determinism and reconciliation.        *)

let explore_register ?cache ?(dpor = false) ?(symmetry = false) ?obs () =
  Explore.explore ~n:2
    ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
    ~invoke:Slx_serve.Queries.safety_invoke ~depth:8 ?cache ~dpor ~symmetry ?obs
    ~check:Slx_serve.Queries.check ()

let essence e =
  let s = e.Explore.stats in
  ( (match e.Explore.outcome with
    | Explore.Ok runs -> ("ok", runs)
    | Explore.Counterexample _ -> ("cex", 0)),
    s.Explore_stats.runs,
    s.Explore_stats.steps_executed,
    s.Explore_stats.history_digest )

let test_tracing_does_not_change_verdicts () =
  let configs =
    [
      ("plain", fun obs -> explore_register ~obs ());
      ("cache-off", fun obs -> explore_register ~cache:false ~obs ());
      ( "dpor+symmetry",
        fun obs -> explore_register ~dpor:true ~symmetry:true ~obs () );
    ]
  in
  List.iter
    (fun (name, run) ->
      (* A bundle is single-shot, so each run gets its own. *)
      let untraced = run (Obs.create ()) in
      let traced = run (Obs.create ~tracing:true ()) in
      Alcotest.(check (pair (pair (pair string int) int) (pair int int)))
        (name ^ ": tracing changes nothing the engine computes")
        (let a, b, c, d = essence untraced in
         (((fst a, snd a), b), (c, d)))
        (let a, b, c, d = essence traced in
         (((fst a, snd a), b), (c, d))))
    configs

let test_traced_events_reconcile_with_stats () =
  let obs = Obs.create ~tracing:true () in
  let e = explore_register ~obs () in
  let s = e.Explore.stats in
  let events = Obs.events obs in
  check_int "no drops at the default ring size" 0 (Obs.events_dropped obs);
  check_int "one node-enter per visited node" s.Explore_stats.nodes
    (count_kind events Telemetry.Node_enter);
  check_int "node spans balance" s.Explore_stats.nodes
    (count_kind events Telemetry.Node_leave);
  check_int "one cache-hit event per cache hit" s.Explore_stats.cache_hits
    (count_kind events Telemetry.Cache_hit);
  check_int "one run-checked event per checked run" s.Explore_stats.runs_checked
    (count_kind events Telemetry.Run_checked);
  (* The export of the same run reads back and agrees on the counts. *)
  let read = (read_back "engine trace" events).Trace_export.events in
  check_int "exported node spans match the stats" s.Explore_stats.nodes
    (count_kind read Telemetry.Node_leave);
  check_int "exported cache hits match the stats" s.Explore_stats.cache_hits
    (count_kind read Telemetry.Cache_hit)

let test_live_search_traced_matches_untraced () =
  let point = Slx_liveness.Freedom.make ~l:1 ~k:1 in
  let invoke = Slx_serve.Queries.live_invoke in
  let search ?obs () =
    Live_explore.search ~n:2
      ~factory:(fun () ->
        Slx_consensus.Register_consensus.factory ~max_rounds:8 ())
      ~invoke
      ~good:Slx_consensus.Consensus_type.good
      ~point ~depth:6 ~max_crashes:1 ?obs ()
  in
  let untraced = search () in
  let obs = Obs.create ~tracing:true () in
  let traced = search ~obs () in
  let verdict r =
    match r.Live_explore.outcome with
    | Live_explore.Lasso _ -> "lasso"
    | Live_explore.No_fair_cycle -> "none"
  in
  Alcotest.(check string)
    "same verdict" (verdict untraced) (verdict traced);
  check_int "same cycles examined"
    untraced.Live_explore.stats.Explore_stats.cycles_examined
    traced.Live_explore.stats.Explore_stats.cycles_examined;
  check_int "same steps"
    untraced.Live_explore.stats.Explore_stats.steps_executed
    traced.Live_explore.stats.Explore_stats.steps_executed;
  let s = traced.Live_explore.stats in
  let read =
    (read_back ~events_dropped:(Obs.events_dropped obs) "live trace"
       (Obs.events obs)).Trace_export.events
  in
  check_int "one cycle-candidate instant per candidate"
    s.Explore_stats.cycles_examined
    (count_kind read Telemetry.Cycle_candidate);
  check_int "one pump span per fair violating candidate"
    s.Explore_stats.fair_cycles
    (count_kind read Telemetry.Pump_verdict)

(* ------------------------------------------------------------------ *)
(* Progress heartbeats.                                                *)

let test_progress_jsonl () =
  let path = Filename.temp_file "slx_progress" ".jsonl" in
  let oc = open_out path in
  let reporter = Progress.create ~interval:0.0 ~json:true ~out:oc () in
  let obs = Obs.create ~progress:reporter () in
  let e = explore_register ~obs () in
  close_out oc;
  check_bool "the reporter beat at least once" true (Progress.beats reporter > 0);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  check_int "one line per beat" (Progress.beats reporter) (List.length !lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error err -> Alcotest.failf "heartbeat is not JSON (%s): %s" err line
      | Ok j ->
          check_bool "heartbeat reports nodes" true
            (match Option.bind (Json.member "nodes" j) Json.int with
            | Some n ->
                n > 0 && n <= e.Explore.stats.Explore_stats.nodes
            | None -> false))
    !lines;
  Sys.remove path

(* The counters' JSON, as [slx explore --json] and the store print it:
   exactly the record's fields, in the record's order, each carrying
   its field's value. *)
let test_stats_json_fields () =
  let s = (explore_register ()).Explore.stats in
  let expected =
    Explore_stats.
      [
        ("nodes", s.nodes);
        ("runs", s.runs);
        ("runs_checked", s.runs_checked);
        ("steps_executed", s.steps_executed);
        ("steps_replayed", s.steps_replayed);
        ("replays_avoided", s.replays_avoided);
        ("cache_hits", s.cache_hits);
        ("cache_entries", s.cache_entries);
        ("por_prunes", s.por_prunes);
        ("race_reversals", s.race_reversals);
        ("invoke_order_prunes", s.invoke_order_prunes);
        ("proviso_wakes", s.proviso_wakes);
        ("symmetry_pruned", s.symmetry_pruned);
        ("cycles_examined", s.cycles_examined);
        ("fair_cycles", s.fair_cycles);
        ("elapsed_ns", s.elapsed_ns);
        ("events_dropped", s.events_dropped);
        ("history_digest", s.history_digest);
      ]
  in
  match Json.parse (Explore_stats.to_json s) with
  | Ok (Json.Obj fields) ->
      Alcotest.(check (list string))
        "the record's fields, in order" (List.map fst expected)
        (List.map fst fields);
      List.iter
        (fun (k, v) ->
          check_bool (k ^ " carries its value") true
            (Option.bind (Json.member k (Json.Obj fields)) Json.int = Some v))
        expected
  | Ok _ -> Alcotest.fail "stats JSON is not an object"
  | Error err -> Alcotest.failf "stats JSON does not parse: %s" err

(* A JSON-lines heartbeat names the sample's counters and the two
   rates, and nothing else. *)
let test_progress_json_fields () =
  let path = Filename.temp_file "slx_progress" ".jsonl" in
  let oc = open_out path in
  let reporter = Progress.create ~interval:0.0 ~json:true ~out:oc () in
  let e = explore_register ~obs:(Obs.create ~progress:reporter ()) () in
  close_out oc;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  match Json.parse line with
  | Ok (Json.Obj fields as j) ->
      Alcotest.(check (list string))
        "heartbeat fields"
        [
          "elapsed_s";
          "nodes";
          "nodes_per_s";
          "runs";
          "steps";
          "steps_per_s";
          "cache_entries";
          "cycles_examined";
        ]
        (List.map fst fields);
      check_bool "the table size is at most the final one" true
        (match Option.bind (Json.member "cache_entries" j) Json.int with
        | Some c -> 0 <= c && c <= e.Explore.stats.Explore_stats.cache_entries
        | None -> false)
  | Ok _ -> Alcotest.fail "heartbeat is not an object"
  | Error err -> Alcotest.failf "heartbeat is not JSON (%s): %s" err line

let test_progress_off_is_free () =
  check_bool "off reporter is disabled" false (Progress.enabled Progress.off);
  check_int "off reporter never beats" 0 (Progress.beats Progress.off);
  Progress.tick Progress.off (fun () -> Alcotest.fail "sampled a disabled reporter")

let suites =
  [
    ( "obs-telemetry",
      [
        quick "ring wraparound accounting" test_ring_wraparound;
        quick "ring below capacity" test_ring_below_capacity;
        quick "decision codes" test_dec_codes;
      ] );
    ( "obs-json",
      [
        quick "parses values and escapes" test_json_parses_values;
        quick "rejects garbage" test_json_rejects_garbage;
        quick "exact integers" test_json_exact_ints;
        quick "shortest round-trip floats" test_json_short_floats;
        quick "stats fields" test_stats_json_fields;
      ]
      @ qcheck [ prop_json_floats_round_trip ] );
    ( "obs-trace",
      [
        quick "export is well-formed" test_trace_export_well_formed;
        quick "export bytes are pinned" test_trace_export_bytes_pinned;
        quick "reader refuses unbalanced traces"
          test_trace_read_refuses_unbalanced;
        quick "a trace event on another tid is refused"
          test_trace_read_refuses_foreign;
        quick "tracing changes no verdict" test_tracing_does_not_change_verdicts;
        quick "events reconcile with stats"
          test_traced_events_reconcile_with_stats;
        quick "live search traced = untraced"
          test_live_search_traced_matches_untraced;
      ]
      @ qcheck [ prop_trace_round_trip ] );
    ( "obs-progress",
      [
        quick "json-lines heartbeats" test_progress_jsonl;
        quick "disabled reporter is free" test_progress_off_is_free;
        quick "heartbeat fields" test_progress_json_fields;
      ] );
  ]
