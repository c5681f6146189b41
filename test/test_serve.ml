(* The serve subsystem's suite.

   - A task is a store-less run: [Queries.run_task sp Full] does the
     engine's exact work (runs, digest, steps, witness, lasso), so a
     served answer costs what a cold CLI run costs, and its result line
     carries the answer and its work counters and nothing else.
   - The query record: {!Queries.qid} binds every field of a
     {!Queries.spec} but the per-record depth and liveness budgets,
     and keeps the values stored records carry.
   - Out-of-range bounds are refused: a usage error on the CLI, an
     [Error] from the serve decoder.
   - Warm service: {!Queries.warm_result} serves a computed verdict
     from the record the worker built, and refuses a record whose
     witness does not replay; the store policy treats a liveness
     record under other budgets as a cold miss, not a rejection.
   - A worker ([slx worker]) answers a task line with the in-process
     task's result and the record the CLI's [--store] would store.
   - A live coordinator ([slx serve], spawned from the built binary):
     a malformed request gets a 400 and the service keeps answering,
     a served record carries its 63-bit digest exactly and
     warm-serves the CLI, a deeper query over a served shallower
     record is computed in full, outside text (a store path, an
     implementation name) comes back as valid JSON, one query
     sequence leaves the same store counters and records as the CLI's
     [--store] path, a query past its deadline has its worker killed,
     a stopped one included, and frees its slot and the service, a
     query whose worker is killed is re-leased and answered in full,
     a deadline fires on time, shutdown does not wait for a stopped
     worker, dead workers leave no zombie, the coordinator forgets the
     oldest ended queries past {!Slx_serve.Serve.max_settled}, and
     [slx query] exits 1 when the server refuses. *)

open Support
open Slx_core
open Slx_liveness
module Json = Slx_obs.Json
module Queries = Slx_serve.Queries
module Store = Slx_store.Store

let spec_of fields =
  match Result.bind (Json.parse fields) Queries.spec_of_json with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "bad spec %s: %s" fields e

let parse_result s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable task result %s: %s" s e

let outcome j =
  Option.value ~default:"" (Option.bind (Json.member "outcome" j) Json.str)

let check_outcome name expected j =
  Alcotest.(check string) (name ^ ": outcome") expected (outcome j)

let int_field j k =
  match Option.bind (Json.member k j) Json.int with
  | Some v -> v
  | None -> Alcotest.failf "no %S in %s" k (Json.to_string j)

let temp_store () =
  let path = Filename.temp_file "slx_serve_test" ".store" in
  Sys.remove path;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ------------------------------------------------------------------ *)
(* A task is a store-less run.                                         *)

let test_full_task_steps () =
  let sp =
    spec_of "{\"impl\": \"cas\", \"n\": 3, \"depth\": 10, \"crashes\": 2}"
  in
  let task = parse_result (Queries.run_task sp Queries.Full) in
  let e =
    Explore.explore ~n:3
      ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
      ~invoke:Queries.safety_invoke ~depth:10 ~max_crashes:2 ~dpor:true
      ~symmetry:true ~check:Queries.check ()
  in
  let s = e.Explore.stats in
  check_outcome "cas n=3 c=2 d=10" "ok" task;
  check_int "runs = store-less" s.Explore_stats.runs (int_field task "runs");
  check_int "digest = store-less" s.Explore_stats.history_digest
    (int_field task "digest");
  check_int "steps = store-less" s.Explore_stats.steps_executed
    (int_field task "steps");
  check_int "steps_replayed = store-less" s.Explore_stats.steps_replayed
    (int_field task "steps_replayed")

let factory_of = function
  | "cas" -> fun () -> Slx_consensus.Cas_consensus.factory ()
  | "register" -> fun () -> Slx_consensus.Register_consensus.factory ()
  | "selfish" -> fun () -> Slx_consensus.Selfish_consensus.factory ()
  | other -> Alcotest.failf "unknown implementation %S" other

let ints_field j k =
  match Json.member k j with
  | Some (Json.Arr vs) ->
      List.map
        (fun v ->
          match Json.int v with
          | Some i -> i
          | None -> Alcotest.failf "non-integer in %S: %s" k (Json.to_string j))
        vs
  | _ -> Alcotest.failf "no array %S in %s" k (Json.to_string j)

(* The store-less safety run a task must reproduce. *)
let store_less_explore ~impl ~n ~depth ~crashes =
  Explore.explore ~n ~factory:(factory_of impl) ~invoke:Queries.safety_invoke
    ~depth ~max_crashes:crashes ~dpor:true ~symmetry:true ~check:Queries.check
    ()

(* The store-less liveness run a task must reproduce. *)
let store_less_live ~impl ~n ~point ~depth ~crashes ~max_period ~pump =
  Live_explore.search ~n ~factory:(factory_of impl) ~invoke:Queries.live_invoke
    ~good:Slx_consensus.Consensus_type.good ~point ~depth ~max_crashes:crashes
    ~max_period ~pump_ticks:pump ~dpor:true ()

let check_work name (s : Explore_stats.t) task =
  check_int (name ^ ": steps = store-less") s.Explore_stats.steps_executed
    (int_field task "steps");
  check_int (name ^ ": steps_replayed = store-less")
    s.Explore_stats.steps_replayed
    (int_field task "steps_replayed")

let test_full_task_explore () =
  List.iter
    (fun (impl, n, depth, crashes) ->
      let name = Printf.sprintf "%s n=%d d=%d c=%d" impl n depth crashes in
      let task =
        parse_result
          (Queries.run_task
             (spec_of
                (Printf.sprintf
                   "{\"impl\": %S, \"n\": %d, \"depth\": %d, \"crashes\": %d}"
                   impl n depth crashes))
             Queries.Full)
      in
      let s = (store_less_explore ~impl ~n ~depth ~crashes).Explore.stats in
      check_outcome name "ok" task;
      check_int (name ^ ": runs = store-less") s.Explore_stats.runs
        (int_field task "runs");
      check_int (name ^ ": digest = store-less") s.Explore_stats.history_digest
        (int_field task "digest");
      check_work name s task)
    [
      ("cas", 2, 8, 1);
      ("register", 2, 10, 0);
      ("cas", 3, 8, 0);
      ("register", 3, 8, 0);
    ]

(* Clean at depth 1, failing at depth 3: the task reports the engine's
   lex-least witness. *)
let test_full_task_counterexample () =
  let task =
    parse_result
      (Queries.run_task
         (spec_of "{\"impl\": \"selfish\", \"depth\": 3, \"crashes\": 1}")
         Queries.Full)
  in
  let e = store_less_explore ~impl:"selfish" ~n:2 ~depth:3 ~crashes:1 in
  check_outcome "selfish" "counterexample" task;
  match e.Explore.witness_script with
  | None -> Alcotest.fail "selfish: store-less run found no witness"
  | Some ds ->
      Alcotest.(check (list int))
        "selfish: witness = store-less" (Explore.codes_of_script ds)
        (ints_field task "witness");
      check_work "selfish" e.Explore.stats task

let test_full_task_lasso () =
  let task =
    parse_result
      (Queries.run_task
         (spec_of
            "{\"kind\": \"live\", \"impl\": \"register\", \"property\": \
             \"1,2\", \"depth\": 8, \"max_period\": 4, \"pump\": 32}")
         Queries.Full)
  in
  let r =
    store_less_live ~impl:"register" ~n:2 ~point:(Freedom.make ~l:1 ~k:2)
      ~depth:8 ~crashes:0 ~max_period:4 ~pump:32
  in
  check_outcome "live register (1,2)" "lasso" task;
  match r.Live_explore.outcome with
  | Live_explore.No_fair_cycle ->
      Alcotest.fail "live register (1,2): store-less run found no lasso"
  | Live_explore.Lasso c ->
      Alcotest.(check (list int))
        "stem = store-less"
        (Explore.codes_of_script c.Lasso.c_stem)
        (ints_field task "stem");
      Alcotest.(check (list int))
        "cycle = store-less"
        (Explore.codes_of_script c.Lasso.c_cycle)
        (ints_field task "cycle");
      check_int "period" (List.length c.Lasso.c_cycle)
        (int_field task "period");
      check_work "live register (1,2)" r.Live_explore.stats task

let test_full_task_live_clean () =
  let task =
    parse_result
      (Queries.run_task
         (spec_of
            "{\"kind\": \"live\", \"impl\": \"cas\", \"property\": \
             \"obstruction\", \"n\": 2, \"depth\": 8, \"crashes\": 1, \
             \"max_period\": 4, \"pump\": 40}")
         Queries.Full)
  in
  let r =
    store_less_live ~impl:"cas" ~n:2 ~point:Freedom.obstruction_freedom
      ~depth:8 ~crashes:1 ~max_period:4 ~pump:40
  in
  let s = r.Live_explore.stats in
  check_outcome "live cas" "no_fair_cycle" task;
  check_int "live cas: runs = store-less" s.Explore_stats.runs
    (int_field task "runs");
  check_work "live cas" s task

(* A result line is the answer and its work counters: no member beyond
   the documented ones (in particular no frontier to resume from). *)
let test_result_members () =
  List.iter
    (fun (fields, expected) ->
      let task = parse_result (Queries.run_task (spec_of fields) Queries.Full) in
      match task with
      | Json.Obj kvs ->
          Alcotest.(check (list string))
            ("members of " ^ fields) expected (List.map fst kvs)
      | j -> Alcotest.failf "not an object: %s" (Json.to_string j))
    [
      ( "{\"impl\": \"cas\", \"depth\": 8, \"crashes\": 1}",
        [ "outcome"; "runs"; "digest"; "steps"; "steps_replayed" ] );
      ( "{\"impl\": \"selfish\", \"depth\": 3, \"crashes\": 1}",
        [ "outcome"; "witness"; "witness_pp"; "steps"; "steps_replayed" ] );
      ( "{\"kind\": \"live\", \"impl\": \"cas\", \"property\": \
         \"obstruction\", \"depth\": 8, \"crashes\": 1, \"max_period\": 4, \
         \"pump\": 40}",
        [ "outcome"; "runs"; "steps"; "steps_replayed" ] );
      ( "{\"kind\": \"live\", \"impl\": \"register\", \"property\": \"1,2\", \
         \"depth\": 8, \"max_period\": 4, \"pump\": 32}",
        [
          "outcome"; "stem"; "cycle"; "stem_pp"; "cycle_pp"; "period"; "steps";
          "steps_replayed";
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Warm service.                                                       *)

(* A computed task's result and the record the worker sends with it. *)
let worked sp =
  let task, r = Queries.work sp in
  (parse_result task, r)

let warm_queries =
  [
    "{\"impl\": \"cas\", \"depth\": 8, \"crashes\": 1}";
    "{\"impl\": \"selfish\", \"depth\": 3, \"crashes\": 1}";
    "{\"kind\": \"live\", \"impl\": \"cas\", \"property\": \"obstruction\", \
     \"depth\": 8, \"crashes\": 1, \"max_period\": 4, \"pump\": 40}";
    "{\"kind\": \"live\", \"impl\": \"register\", \"property\": \"1,2\", \
     \"depth\": 8, \"max_period\": 4, \"pump\": 32}";
  ]

(* A warm answer repeats the computed one (verdict, runs, witness,
   lasso), explores nothing (its only work is replaying a witness) and
   reports the stored steps. *)
let test_warm_serves_computed () =
  List.iter
    (fun fields ->
      let sp = spec_of fields in
      let task, r = worked sp in
      match Queries.warm_result sp r with
      | None -> Alcotest.failf "%s: computed record not served warm" fields
      | Some w ->
          let warm = parse_result w in
          check_outcome fields (outcome task) warm;
          (* Only a witness is replayed, one step per code. *)
          let replayed =
            if outcome task = "counterexample" then
              List.length (ints_field task "witness")
            else 0
          in
          check_int (fields ^ ": steps = replayed witness") replayed
            (int_field warm "steps");
          check_int (fields ^ ": stored steps") (int_field task "steps")
            (int_field warm "stored_steps");
          List.iter
            (fun k ->
              match (Json.member k task, Json.member k warm) with
              | Some a, Some b ->
                  Alcotest.(check string)
                    (fields ^ ": " ^ k) (Json.to_string a) (Json.to_string b)
              | Some _, None -> Alcotest.failf "%s: warm lacks %S" fields k
              | None, _ -> ())
            [ "runs"; "witness"; "witness_pp"; "stem"; "cycle"; "period" ])
    warm_queries

(* A record the query cannot vouch for is not served: a witness that
   does not fail the property on replay or a lasso that is not a fair
   cycle is rejected; a liveness record made under other budgets is a
   cold miss, never handed to the validator. *)
let test_warm_refuses () =
  let refused name sp r =
    check_bool (name ^ " is not served") true (Queries.warm_result sp r = None)
  in
  let selfish = spec_of (List.nth warm_queries 1) in
  let task, r = worked selfish in
  (match r.Store.r_verdict with
  | Store.V_counterexample codes ->
      refused "a truncated witness" selfish
        { r with Store.r_verdict = Store.V_counterexample [ List.hd codes ] }
  | _ -> Alcotest.fail "selfish: no counterexample");
  let cas = spec_of "{\"impl\": \"cas\", \"depth\": 8, \"crashes\": 1}" in
  let codes = ints_field task "witness" in
  refused "a selfish witness on cas" cas
    { r with Store.r_verdict = Store.V_counterexample codes };
  let live = spec_of (List.nth warm_queries 3) in
  let _, r = worked live in
  let cold_miss name r =
    let st = Store.open_ (temp_store ()) in
    Store.add st r;
    check_bool (name ^ " is not served") true
      (Slx_store.Persist.warm st ~qid:r.Store.r_qid ~depth:live.Queries.sp_depth
         ~max_period:live.Queries.sp_max_period ~pump_ticks:live.Queries.sp_pump
         (Queries.warm_result live)
      = None);
    check_int (name ^ " is not rejected") 0
      (Store.counters st).Store.c_rejected
  in
  cold_miss "a lasso under another pump"
    { r with Store.r_pump_ticks = r.Store.r_pump_ticks + 1 };
  cold_miss "a lasso under another max_period"
    { r with Store.r_max_period = r.Store.r_max_period + 1 };
  match r.Store.r_verdict with
  | Store.V_lasso { stem; cycle } ->
      refused "a lasso with its cycle dropped" live
        { r with Store.r_verdict = Store.V_lasso { stem = stem @ cycle; cycle = [] } }
  | _ -> Alcotest.fail "live register (1,2): no lasso"

(* ------------------------------------------------------------------ *)
(* The query record.                                                   *)

let make ?(kind = `Live) ?(impl = "register") ?(property = "1,2") ?(n = 2)
    ?(depth = 10) ?(crashes = 0) ?max_period ?pump ?(dpor = true) () =
  match
    Queries.make ~kind ~impl ~property ~n ~depth ~crashes ~max_period ~pump
      ~dpor
  with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "make refused a valid spec: %s" e

(* Every field but depth and the liveness budgets is in the qid; those
   three are the record's slot and are compared per record. *)
let test_qid_binds_the_record () =
  let live = make () and safety = make ~kind:`Explore () in
  let qid_changes expected (name, base, variant) =
    check_bool
      (Printf.sprintf "%s %s the qid" name
         (if expected then "changes" else "keeps"))
      expected
      (Queries.qid base <> Queries.qid variant)
  in
  List.iter (qid_changes true)
    [
      ("kind", live, safety);
      ("impl", live, make ~impl:"cas" ());
      ("property", live, make ~property:"2,2" ());
      ("n", live, make ~n:3 ());
      ("crashes", live, make ~crashes:1 ());
      ("dpor", live, make ~dpor:false ());
      ("safety impl", safety, make ~kind:`Explore ~impl:"cas" ());
    ];
  List.iter (qid_changes false)
    [
      ("depth", live, make ~depth:12 ());
      ("max_period", live, make ~max_period:3 ());
      ("pump", live, make ~pump:99 ());
      ("safety depth", safety, make ~kind:`Explore ~depth:8 ());
      (* A safety query always runs DPOR. *)
      ("safety dpor", safety, make ~kind:`Explore ~dpor:false ());
    ];
  (* The decoder keys a live query as the CLI's default. *)
  check_int "a decoded live query keys like the CLI's default"
    (Queries.qid live)
    (Queries.qid
       (spec_of {|{"kind": "live", "impl": "register", "property": "1,2"}|}))

(* The qids of stored records are pinned: a store written by an
   earlier build answers warm only while they hold.  A safety query
   hashes [dpor=true sym=true] whatever [dpor] it is built with, and a
   live one [sym=false] with its own [dpor]. *)
let test_qid_values_pinned () =
  List.iter
    (fun (name, sp, expected) -> check_int name expected (Queries.qid sp))
    [
      ( "safety cas n=2 c=1",
        make ~kind:`Explore ~impl:"cas" ~crashes:1 (),
        4448029278466072970 );
      ( "safety cas n=2 c=1 asked without dpor",
        make ~kind:`Explore ~impl:"cas" ~crashes:1 ~dpor:false (),
        4448029278466072970 );
      ( "safety register n=3 c=2",
        make ~kind:`Explore ~n:3 ~crashes:2 (),
        1198646912507385600 );
      ("safety selfish n=2", make ~kind:`Explore ~impl:"selfish" (),
       3233755985106865418);
      ("live register (1,2)", make (), 3870233144060948253);
      ("live register (1,2) without dpor", make ~dpor:false (),
       1222212953851040406);
      ( "live cas obstruction n=3 c=1",
        make ~impl:"cas" ~property:"obstruction" ~n:3 ~crashes:1 (),
        2426983965865092172 );
      ( "live cas obstruction n=3 c=1 without dpor",
        make ~impl:"cas" ~property:"obstruction" ~n:3 ~crashes:1 ~dpor:false
          (),
        4301762813694862893 );
    ]

(* A live property is deduplicated by the freedom point it names, as
   the qid binds it: a named point and its (l,k) spelling fill one
   store slot, so they are one in-flight query, not two computing one
   tree into that slot. *)
let test_key_binds_the_point () =
  List.iter
    (fun (name, point) ->
      let a = make ~property:name ~n:3 ()
      and b = make ~property:point ~n:3 () in
      check_bool
        (Printf.sprintf "%s and %s share a slot" name point)
        true
        (Queries.slot a = Queries.slot b))
    [ ("obstruction", "1,1"); ("wait", "3,3"); ("lock", "1,3") ];
  check_bool "distinct points keep distinct slots" true
    (Queries.slot (make ~property:"1,2" ())
    <> Queries.slot (make ~property:"2,2" ()))

(* ------------------------------------------------------------------ *)
(* Out-of-range input.                                                 *)

let slx_bin = "../bin/slx_cli.exe"

(* Each bad bound is a usage error (cmdliner's exit 124) on the CLI,
   never an engine exception (125) or a verdict. *)
let test_cli_out_of_range_refused () =
  List.iter
    (fun args ->
      check_int
        (Printf.sprintf "slx %s is a usage error" args)
        124
        (Sys.command
           (Printf.sprintf "%s %s --json >/dev/null 2>&1" slx_bin args)))
    [
      "explore --depth=-3";
      "explore --depth 0";
      "explore --depth 65";
      "explore --crashes=-2";
      "explore -j 2";
      "live-explore --max-period 0";
      "live-explore --pump 0";
      "live-explore --depth=-1";
      "live-explore --crashes=-1";
      "live-explore --procs 0";
      "live-explore --procs 17";
      "live-explore --property 2,1";
      "live-explore --property 1,17 --procs 2";
      "figure1 -n 0";
      "figure1 -n 1";
      "figure1 -o tm -n 1";
      "figure1 -o s-prime -n 1";
      "figure1 -n 17";
      "figure1 --steps 0";
      "figure1 -o consensus-exhaustive --depth 0";
      "figure1 -o consensus-exhaustive --depth 65";
      "explore --sanitize";
      "live-explore --sanitize";
      "audit";
    ];
  (* The games take no --json.  Each runs with a budget of one step,
     so the refusals below are the budget's alone. *)
  List.iter
    (fun (cmd, budgets) ->
      List.iter
        (fun (steps, expected) ->
          let args = Printf.sprintf "%s --steps=%s" cmd steps in
          check_int
            (Printf.sprintf "slx %s exits %d" args expected)
            expected
            (Sys.command
               (Printf.sprintf "%s %s >/dev/null 2>&1" slx_bin args)))
        budgets)
    (List.map
       (fun cmd -> (cmd, [ ("1", 0); ("0", 124); ("-3", 124) ]))
       [ "game"; "game --adversary tie"; "tm-game"; "mutex" ]);
  (* An unknown choice is a usage error too, which lists the valid
     choices, and so is a serve bound out of range: cmdliner refuses it
     before any socket or worker exists. *)
  List.iter
    (fun args ->
      check_int
        (Printf.sprintf "slx %s is a usage error" args)
        124
        (Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" slx_bin args)))
    [
      "figure1 --object bogus";
      "game --impl bogus";
      "game --adversary bogus";
      "tm-game --impl bogus";
      "tm-game --adversary bogus";
      "mutex --impl bogus";
      "query --kind bogus";
      "serve --workers 0";
      "serve --workers 65";
      "serve --port 0";
      "serve --port 65536";
      "query --port 0";
      "query --port 65536";
    ]

(* The tie adversary plays to the --steps budget it is given, 60 by
   default. *)
let test_cli_tie_steps () =
  let tie flags =
    let out = Filename.temp_file "slx_serve_test" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        check_int "exit code" 0
          (Sys.command
             (Printf.sprintf "%s game --adversary tie%s > %s" slx_bin flags out));
        String.trim (In_channel.with_open_bin out In_channel.input_all))
  in
  let default = tie "" in
  Alcotest.(check string)
    "default budget" "adversary wins: 62 fair steps, no decision, safety true"
    default;
  Alcotest.(check string) "--steps 60 is the default" default (tie " --steps 60");
  check_bool "--steps 5 changes the run" true (tie " --steps 5" <> default)

(* The declared-footprint POR, structural-key and hash-compaction
   switches, the safety walk's reduction switches (it always runs DPOR
   plus symmetry), the live proviso bound and the invoke-order switch
   (the live search always offers invocations in process order) are
   gone: naming them is a usage error too. *)
let test_cli_retired_flags_refused () =
  List.iter
    (fun args ->
      check_int
        (Printf.sprintf "slx %s is a usage error" args)
        124
        (Sys.command
           (Printf.sprintf "%s %s --json >/dev/null 2>&1" slx_bin args)))
    [
      "explore --no-por";
      "explore --no-compact";
      "explore --bitstate 16";
      "explore --no-cache";
      "explore --cache-capacity 50";
      "explore --no-dpor";
      "explore --no-symmetry";
      "live-explore --no-compact";
      "live-explore --proviso 3";
      "live-explore --invoke-order";
      "live-explore --no-cache";
      "live-explore --cache-capacity 40";
    ]

(* The serve decoder answers the same bad bounds, and members of the
   wrong JSON type, with an [Error]. *)
let test_decoder_out_of_range_refused () =
  List.iter
    (fun fields ->
      match Result.bind (Json.parse fields) Queries.spec_of_json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "the decoder accepted %s" fields)
    [
      {|{"kind": "explore", "crashes": -1}|};
      {|{"kind": "live", "crashes": -1}|};
      {|{"kind": "live", "max_period": 0}|};
      {|{"kind": "live", "pump": 0}|};
      {|{"kind": "explore", "depth": 0}|};
      {|{"kind": "explore", "n": 0}|};
      {|{"kind": "live", "property": "2,1"}|};
      {|{"kind": "live", "property": "0,1"}|};
      {|{"kind": "live", "property": "1,3"}|};
      (* A member of the wrong JSON type: never truncated, never read
         as its default. *)
      {|{"kind": "explore", "depth": 8.7}|};
      {|{"kind": "explore", "crashes": "2"}|};
      {|{"kind": "live", "pump": 40.0}|};
      {|{"n": null}|};
      {|{"impl": 3}|};
      {|{"kind": true}|};
      {|{"kind": "live", "property": ["1,2"]}|};
    ];
  ignore (spec_of {|{"kind": "live", "max_period": 1, "pump": 1, "crashes": 0}|});
  ignore (spec_of {|{"kind": "live", "property": "1,3", "n": 3}|});
  (* The encoder's output decodes, explore specs' zero budgets
     included. *)
  List.iter
    (fun fields ->
      let sp = spec_of fields in
      Alcotest.(check string)
        (fields ^ " round-trips") (Queries.spec_to_json sp)
        (Queries.spec_to_json (spec_of (Queries.spec_to_json sp))))
    [
      {|{"kind": "explore", "impl": "register", "depth": 10, "crashes": 1}|};
      {|{"kind": "live", "impl": "cas", "property": "1,2", "max_period": 2}|};
    ]

(* ------------------------------------------------------------------ *)
(* A live coordinator.                                                 *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> Alcotest.fail "no port")

(* Send raw bytes, read until the server closes: the whole response,
   which must be complete [within] seconds after the request. *)
let exchange ?(within = 30.) port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string raw in
      let rec send off =
        if off < Bytes.length b then
          send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let deadline = Unix.gettimeofday () +. within in
      let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec recv () =
        match
          Unix.select [ fd ] [] [] (max 0. (deadline -. Unix.gettimeofday ()))
        with
        | [], _, _ -> Alcotest.failf "no response within %g s" within
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> Buffer.contents buf
            | k ->
                Buffer.add_subbytes buf chunk 0 k;
                recv ())
      in
      recv ())

let request ~meth ~path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" meth path
    (String.length body) body

let status_line response =
  match String.index_opt response '\r' with
  | Some i -> String.sub response 0 i
  | None -> response

(* The JSON on the last line of a response body. *)
let last_json response =
  let lines =
    List.filter
      (fun l -> String.trim l <> "" && l.[0] = '{')
      (String.split_on_char '\n' response)
  in
  match List.rev lines with
  | last :: _ -> parse_result last
  | [] -> Alcotest.failf "no JSON in %S" response

(* Run [f pid port] against a fresh one-worker coordinator on
   [store], whose process is [pid]; the coordinator is shut down and
   reaped afterwards. *)
let with_server_pid ~store f =
  let port = free_port () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process slx_bin
      [| slx_bin; "serve"; "--port"; string_of_int port; "--workers"; "1";
         "--store"; store |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (exchange port (request ~meth:"POST" ~path:"/shutdown" ""))
       with _ -> Unix.kill pid Sys.sigkill);
      ignore (Unix.waitpid [] pid);
      close_in_noerr ic)
    (fun () ->
      (* The coordinator prints one JSON line once it listens. *)
      ignore (parse_result (input_line ic));
      f pid port)

let with_server ~store f = with_server_pid ~store (fun _ port -> f port)

let query port fields =
  let j =
    last_json
      (exchange port
         (request ~meth:"POST" ~path:"/query"
            ("{" ^ fields ^ ", \"wait\": true}")))
  in
  match Json.member "result" j with
  | Some r -> (Option.bind (Json.member "source" j) Json.str, r)
  | None -> Alcotest.failf "query %s: %s" fields (Json.to_string j)

let stats port = last_json (exchange port (request ~meth:"GET" ~path:"/stats" ""))

let stat j path =
  List.fold_left (fun j k -> Option.get (Json.member k j)) j path
  |> Json.int |> Option.get

(* A worker ([slx worker]) answers each task line with exactly the
   in-process task's result, in the order of the lines, and a line
   that does not parse with an error result. *)
let test_worker_answers_task_line () =
  let fields = "{\"impl\": \"register\", \"n\": 3, \"depth\": 8, \"crashes\": 1}" in
  let expected = parse_result (Queries.run_task (spec_of fields) Queries.Full) in
  let to_w_r, to_w_w = Unix.pipe ~cloexec:true () in
  let of_w_r, of_w_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process slx_bin [| slx_bin; "worker" |] to_w_r of_w_w
      Unix.stderr
  in
  Unix.close to_w_r;
  Unix.close of_w_w;
  let oc = Unix.out_channel_of_descr to_w_w in
  let ic = Unix.in_channel_of_descr of_w_r in
  let lines =
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        ignore (Unix.waitpid [] pid);
        close_in_noerr ic)
      (fun () ->
        Printf.fprintf oc "{\"spec\": %s}\nnot json\n%s\n%!" fields
          {|{"spec": {"kind": "explore", "impl": "cas", "depth": 8.7, "crashes": "2"}}|};
        close_out oc;
        (* Heartbeats carry no result; only result lines do. *)
        let rec results acc =
          match input_line ic with
          | line ->
              let j = parse_result line in
              if Json.member "result" j = None then results acc
              else results (j :: acc)
          | exception End_of_file -> List.rev acc
        in
        results [])
  in
  match lines with
  | [ answer; bad; mistyped ] ->
      Alcotest.(check string)
        "worker result = in-process task" (Json.to_string expected)
        (Json.to_string (Option.get (Json.member "result" answer)));
      (* The worker's record is exactly what the CLI's --store path
         stores for the same query. *)
      let st = Store.open_ (temp_store ()) in
      ignore (Queries.run ~store:st (spec_of fields));
      Alcotest.(check (list string))
        "worker record = Queries.run ~store's record"
        (List.map Store.record_to_string (Store.records st))
        (match Option.bind (Json.member "record" answer) Json.str with
        | Some r -> (
            match Store.record_of_string r with
            | Ok r -> [ Store.record_to_string r ]
            | Error e -> Alcotest.failf "undecodable record %S: %s" r e)
        | None -> Alcotest.fail "result line without a record");
      check_bool "bad line: no record" true (Json.member "record" bad = None);
      check_outcome "bad line" "error" (Option.get (Json.member "result" bad));
      (* A fractional depth and a quoted crash count are refused, not
         run as the depth-8 crash-free query. *)
      check_bool "mistyped spec: no record" true
        (Json.member "record" mistyped = None);
      check_outcome "mistyped spec" "error"
        (Option.get (Json.member "result" mistyped))
  | _ -> Alcotest.failf "expected 3 result lines, got %d" (List.length lines)

(* A request the coordinator cannot take answers 400 and creates no
   query, and the coordinator keeps serving: a negative
   Content-Length, a freedom point with [l > k], which names no cell
   of the grid (the decoder refuses it before the engine could raise
   on it), one with [k > n], which would answer for [k = n] under
   a qid of its own, members of the wrong JSON type, and a request
   longer than {!Slx_serve.Serve.max_request}. *)
let test_bad_requests_answer_400 () =
  with_server ~store:(temp_store ()) (fun port ->
      List.iter
        (fun (name, raw, message) ->
          let resp = exchange port raw in
          Alcotest.(check string)
            name "HTTP/1.1 400 Bad Request" (status_line resp);
          Option.iter
            (fun m ->
              Alcotest.(check (option string))
                (name ^ ": message") (Some m)
                (Option.bind (Json.member "message" (last_json resp)) Json.str))
            message;
          let resp = exchange port (request ~meth:"GET" ~path:"/stats" "") in
          Alcotest.(check string)
            (name ^ ": still serving") "HTTP/1.1 200 OK" (status_line resp);
          check_int
            (name ^ ": no query was created")
            0
            (stat (last_json resp) [ "queries" ]))
        [
          ( "negative Content-Length",
            "POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
            None );
          ( "l > k",
            request ~meth:"POST" ~path:"/query"
              {|{"kind": "live", "property": "2,1"}|},
            Some "property \"2,1\" out of range: l 2 exceeds k 1" );
          ( "k > n",
            request ~meth:"POST" ~path:"/query"
              {|{"kind": "live", "property": "1,3"}|},
            Some "property \"1,3\" out of range: k 3 exceeds n 2" );
          ( "fractional depth",
            request ~meth:"POST" ~path:"/query"
              {|{"kind": "explore", "impl": "cas", "depth": 8.7}|},
            Some "depth must be an integer" );
          ( "quoted crashes",
            request ~meth:"POST" ~path:"/query"
              {|{"kind": "explore", "impl": "cas", "crashes": "2"}|},
            Some "crashes must be an integer" );
          ( "numeric wait",
            request ~meth:"POST" ~path:"/query"
              {|{"kind": "explore", "impl": "cas", "wait": 1}|},
            Some "wait must be a boolean" );
          ( "null wait",
            request ~meth:"POST" ~path:"/query"
              {|{"kind": "explore", "impl": "cas", "wait": null}|},
            Some "wait must be a boolean" );
          (* Requests past the cap: the header block has not ended, or
             the Content-Length asks for more, or for max_int, whose
             end offset wraps.  [exchange]'s receive timeout fails a
             server that keeps the request waiting. *)
          ( "unended header block",
            String.make (Slx_serve.Serve.max_request + 1) 'x',
            None );
          ( "huge Content-Length",
            "POST /query HTTP/1.1\r\nContent-Length: 100000000\r\n\r\n{}",
            None );
          ( "max_int Content-Length",
            Printf.sprintf "POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
              max_int,
            None );
        ])

(* More idle connections than [select]'s FD_SETSIZE (1024), none
   sending a byte: the coordinator keeps its client-side fds bounded
   by closing the oldest idle ones, and still answers /stats and
   /shutdown.  The two answering sockets are made before the flood, so
   that their fds stay low: this process reads them without [select]. *)
let test_idle_flood_is_survived () =
  with_server ~store:(temp_store ()) (fun port ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let socket () =
        Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0
      in
      let answer fd raw =
        Unix.connect fd addr;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
        ignore (Unix.write_substring fd raw 0 (String.length raw));
        let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
        let rec recv () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Buffer.contents buf
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              recv ()
        in
        recv ()
      in
      let ask = socket () and bye = socket () in
      let idle = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close (ask :: bye :: !idle))
        (fun () ->
          match
            for _ = 1 to 1100 do
              let fd = socket () in
              idle := fd :: !idle;
              Unix.connect fd addr
            done
          with
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
              Printf.printf "skipped: out of fds after %d connections\n"
                (List.length !idle);
              Alcotest.skip ()
          | () ->
              let stats =
                answer ask (request ~meth:"GET" ~path:"/stats" "")
              in
              Alcotest.(check string)
                "/stats after the flood" "HTTP/1.1 200 OK" (status_line stats);
              let bye =
                answer bye (request ~meth:"POST" ~path:"/shutdown" "")
              in
              Alcotest.(check string)
                "/shutdown after the flood" "HTTP/1.1 200 OK" (status_line bye);
              check_bool "shutdown acknowledged" true
                (Json.member "ok" (last_json bye) = Some (Json.Bool true))))

(* The last JSON line [slx ARGS] prints, and its exit code. *)
let cli_last_json args =
  let out = Filename.temp_file "slx_serve_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let rc = Sys.command (Printf.sprintf "%s %s > %s" slx_bin args out) in
      (rc, last_json (In_channel.with_open_bin out In_channel.input_all)))

(* CI's slow live query: it computes for tens of milliseconds. *)
let slow_fields =
  {|"kind": "live", "impl": "cas", "property": "obstruction", "n": 3, |}
  ^ {|"depth": 11, "crashes": 1, "max_period": 4, "pump": 40|}

(* The pids of process [pid]'s children, where /proc can tell. *)
let children pid =
  let file = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  if Sys.file_exists file then
    Some
      (In_channel.with_open_bin file In_channel.input_all
      |> String.split_on_char ' '
      |> List.filter_map int_of_string_opt)
  else None

(* The pid of coordinator [pid]'s one child, its worker, where /proc
   can tell. *)
let worker_pid pid = match children pid with Some [ w ] -> Some w | _ -> None

(* Process [pid]'s state letter ('Z' for a zombie): the field after
   its command name, which is in parentheses and may hold spaces. *)
let proc_state pid =
  let stat =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  in
  stat.[String.rindex stat ')' + 2]

(* [worker_pid] for a test that cannot run without it: the test is
   skipped where /proc has no children list. *)
let worker_of pid =
  match children pid with
  | Some [ w ] -> w
  | Some ws -> Alcotest.failf "%d children, not one worker" (List.length ws)
  | None ->
      print_endline "skipped: no children list in /proc";
      Alcotest.skip ()

(* The deadline path.  A [timeout] that is not a positive number is
   refused before a query exists.  A query past its deadline reads
   [timeout] in /status and counts in /stats; its worker is killed and
   its slot released, so the same query submitted again is a new
   query, which a fresh worker process computes, with nothing
   re-leased (where /proc names the workers, the pids are compared).
   The timeout, a microsecond, expires before the coordinator's loop
   iteration that admitted the query ends, where deadlines are
   checked; the query (CI's slow live query) computes for tens of
   milliseconds.  A served safety query runs first, so the worker's
   pid is known before the kill. *)
let test_deadline_kills_and_frees_the_slot () =
  let slow =
    "--kind live --impl cas --property obstruction --procs 3 --depth 11 \
     --crashes 1 --max-period 4 --pump 40"
  in
  with_server_pid ~store:(temp_store ()) (fun pid port ->
      let slx args =
        cli_last_json (Printf.sprintf "query --port %d %s" port args)
      in
      List.iter
        (fun timeout ->
          let resp =
            exchange port
              (request ~meth:"POST" ~path:"/query"
                 (Printf.sprintf "{%s, \"timeout\": %s}" slow_fields timeout))
          in
          Alcotest.(check string)
            ("timeout " ^ timeout) "HTTP/1.1 400 Bad Request"
            (status_line resp);
          check_outcome ("timeout " ^ timeout) "error" (last_json resp))
        [ {|"5"|}; "0"; "-1"; "null" ];
      (* The refusal echoes the number as the client wrote it. *)
      let refusal =
        exchange port
          (request ~meth:"POST" ~path:"/query"
             (Printf.sprintf "{%s, \"timeout\": -0.1}" slow_fields))
      in
      Alcotest.(check (option string))
        "timeout -0.1 refusal"
        (Some "timeout -0.1 is not a positive number of seconds")
        (Option.bind (Json.member "message" (last_json refusal)) Json.str);
      check_int "a refused timeout creates no query" 0
        (stat (stats port) [ "queries" ]);
      let src, _ = query port {|"impl": "cas", "depth": 4|} in
      check_bool "the worker is up" true (src = Some "full");
      let before = worker_pid pid in
      let submit args =
        let rc, j = slx (slow ^ args) in
        check_int ("slx query" ^ args ^ ": exit code") 0 rc;
        Alcotest.(check (option bool))
          ("slx query" ^ args ^ ": deduped") (Some false)
          (match Json.member "deduped" j with
          | Some (Json.Bool b) -> Some b
          | _ -> None);
        int_field j "id"
      in
      let state id =
        let _, j = slx (Printf.sprintf "--status %d" id) in
        (Option.bind (Json.member "state" j) Json.str, j)
      in
      let id = submit " --timeout 1e-6" in
      Alcotest.(check (option string))
        "--status reads timeout" (Some "timeout") (fst (state id));
      let _, st = slx "--stats" in
      check_int "/stats counts one timeout" 1 (stat st [ "timeouts" ]);
      let again = submit "" in
      check_bool "the resubmission is a new query" true (again <> id);
      let rec settle tries =
        match state again with
        | Some "running", _ when tries > 0 ->
            Unix.sleepf 0.05;
            settle (tries - 1)
        | s, j -> (s, j)
      in
      let s, j = settle 600 in
      Alcotest.(check (option string))
        "the resubmission is done" (Some "done") s;
      check_outcome "the resubmission" "no_fair_cycle"
        (Option.get (Json.member "result" j));
      Option.iter
        (fun b ->
          check_bool "a fresh worker process computed it" true
            (match worker_pid pid with Some w -> w <> b | None -> false))
        before;
      check_int "nothing was re-leased" 0 (stat (stats port) [ "re_leases" ]))

(* A worker lost mid-query.  The coordinator's one worker, up since a
   served safety query, is stopped before CI's slow live query is
   submitted, so the query is still its task when it is killed.  The
   coordinator puts the query back once, and the answer is the
   store-less task's, computed in full. *)
let test_killed_worker_is_re_leased () =
  let expected =
    Queries.run_task (spec_of ("{" ^ slow_fields ^ "}")) Queries.Full
    |> parse_result |> Json.to_string
  in
  with_server_pid ~store:(temp_store ()) (fun pid port ->
      let src, _ = query port {|"impl": "cas", "depth": 4|} in
      check_bool "the worker is up" true (src = Some "full");
      let worker =
        match worker_pid pid with
        | Some w -> w
        | None -> Alcotest.fail "no worker pid in /proc"
      in
      Unix.kill worker Sys.sigstop;
      let id =
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill worker Sys.sigcont with Unix.Unix_error _ -> ())
          (fun () ->
            let ticket =
              exchange port
                (request ~meth:"POST" ~path:"/query" ("{" ^ slow_fields ^ "}"))
            in
            Unix.kill worker Sys.sigkill;
            int_field (last_json ticket) "id")
      in
      let status () =
        last_json
          (exchange port
             (request ~meth:"GET" ~path:(Printf.sprintf "/status/%d" id) ""))
      in
      let rec settle tries =
        let j = status () in
        if Json.member "state" j = Some (Json.Str "running") && tries > 0
        then begin
          Unix.sleepf 0.05;
          settle (tries - 1)
        end
        else j
      in
      let j = settle 600 in
      let str k = Option.bind (Json.member k j) Json.str in
      Alcotest.(check (option string)) "state" (Some "done") (str "state");
      Alcotest.(check (option string)) "source" (Some "full") (str "source");
      Alcotest.(check string)
        "result = store-less task" expected
        (Json.to_string (Option.get (Json.member "result" j)));
      check_int "/stats counts one re-lease" 1
        (stat (stats port) [ "re_leases" ]))

(* Run [f pid port worker] against a one-worker coordinator whose
   [worker] is stopped (SIGSTOP) after a warm-up query and resumed
   afterwards. *)
let with_stopped_worker f =
  with_server_pid ~store:(temp_store ()) (fun pid port ->
      let src, _ = query port {|"impl": "cas", "depth": 4|} in
      check_bool "the worker is up" true (src = Some "full");
      let worker = worker_of pid in
      Unix.kill worker Sys.sigstop;
      Fun.protect
        ~finally:(fun () ->
          try Unix.kill worker Sys.sigcont with Unix.Unix_error _ -> ())
        (fun () -> f pid port worker))

(* A hung worker.  The coordinator's one worker is stopped (SIGSTOP)
   after a warm-up query, so CI's slow live query can only time out.
   The kill at its deadline frees the service: a cold query submitted
   next answers [done] within 10 s, on a fresh worker, with nothing
   re-leased and no worker busy. *)
let test_stopped_worker_timeout_frees_the_service () =
  let state j = Option.bind (Json.member "state" j) Json.str in
  with_stopped_worker (fun pid port worker ->
      let timed_out =
        exchange port
          (request ~meth:"POST" ~path:"/query"
             ("{" ^ slow_fields ^ {|, "timeout": 0.3, "wait": true}|}))
      in
      Alcotest.(check (option string))
        "the slow query timed out" (Some "timeout")
        (state (last_json timed_out));
      let cold =
        exchange ~within:10. port
          (request ~meth:"POST" ~path:"/query"
             {|{"impl": "cas", "depth": 6, "wait": true}|})
      in
      Alcotest.(check (option string))
        "the next cold query is done" (Some "done")
        (state (last_json cold));
      check_bool "a fresh worker computed it" true (worker_of pid <> worker);
      let st = stats port in
      check_int "nothing was re-leased" 0 (stat st [ "re_leases" ]);
      check_int "no worker is busy" 0 (stat st [ "workers_busy" ]);
      check_int "no query is active" 0 (stat st [ "active" ]))

(* A deadline fires on time, not at the next poll.  The one worker is
   stopped after a warm-up query, so CI's slow live query under a
   0.3 s timeout can only time out; it must settle no earlier than its
   deadline and well before 0.45 s (a 0.25 s poll read 0.501). *)
let test_deadline_fires_on_time () =
  with_stopped_worker (fun _ port _ ->
      let j =
        last_json
          (exchange port
             (request ~meth:"POST" ~path:"/query"
                ("{" ^ slow_fields ^ {|, "timeout": 0.3, "wait": true}|})))
      in
      Alcotest.(check (option string))
        "the slow query timed out" (Some "timeout")
        (Option.bind (Json.member "state" j) Json.str);
      let elapsed =
        Option.get (Option.bind (Json.member "elapsed_s" j) Json.num)
      in
      check_bool
        (Printf.sprintf "elapsed_s %.3f is in [0.3, 0.45)" elapsed)
        true
        (elapsed >= 0.3 && elapsed < 0.45))

(* Shutdown stops every worker, a stopped one included, instead of
   waiting for its task.  The one worker is stopped before CI's slow
   live query is submitted, so the query is its task when /shutdown
   comes; the coordinator must then exit within 5 s.  It is not reaped
   here: its zombie state is its exit. *)
let test_shutdown_does_not_wait_for_a_stopped_worker () =
  with_stopped_worker (fun pid port _ ->
      ignore
        (exchange port
           (request ~meth:"POST" ~path:"/query" ("{" ^ slow_fields ^ "}")));
      check_int "the worker is busy" 1 (stat (stats port) [ "workers_busy" ]);
      let bye = exchange port (request ~meth:"POST" ~path:"/shutdown" "") in
      check_bool "/shutdown answers ok" true
        (Json.member "ok" (last_json bye) = Some (Json.Bool true));
      let deadline = Unix.gettimeofday () +. 5. in
      let rec exited () =
        proc_state pid = 'Z'
        || Unix.gettimeofday () < deadline
           && begin
                Unix.sleepf 0.01;
                exited ()
              end
      in
      check_bool "the coordinator exits within 5 s" true (exited ()))

(* Dead workers are reaped: after 300 SIGKILLs of the idle worker and
   one kill at a deadline, the coordinator has one child and no
   zombie.  Each kill waits for the fresh worker, which is spawned once
   the dead one's EOF is handled; a computed query follows the timeout.
   A reap that neither kills nor blocks leaves a zombie when the dying
   worker has closed its pipes but not yet exited; on a 2-core x86-64
   Linux host that was about one kill in a hundred, and this test
   failed on such a reap in 19 of 20 runs. *)
let test_dead_workers_are_reaped () =
  with_server_pid ~store:(temp_store ()) (fun pid port ->
      let computed depth =
        let src, _ =
          query port (Printf.sprintf {|"impl": "cas", "depth": %d|} depth)
        in
        check_bool (Printf.sprintf "depth %d computed" depth) true
          (src = Some "full")
      in
      let rec respawned w tries =
        match children pid with
        | Some cs when List.exists (fun c -> c <> w) cs -> ()
        | _ when tries > 0 ->
            Unix.sleepf 0.002;
            respawned w (tries - 1)
        | _ -> Alcotest.failf "worker %d was not replaced" w
      in
      computed 4;
      for _ = 1 to 300 do
        let w = worker_of pid in
        Unix.kill w Sys.sigkill;
        respawned w 2500
      done;
      let timed_out =
        last_json
          (exchange port
             (request ~meth:"POST" ~path:"/query"
                ("{" ^ slow_fields ^ {|, "timeout": 1e-6, "wait": true}|})))
      in
      Alcotest.(check (option string))
        "the slow query timed out" (Some "timeout")
        (Option.bind (Json.member "state" timed_out) Json.str);
      computed 5;
      let cs = Option.value (children pid) ~default:[] in
      check_int "one child" 1 (List.length cs);
      check_bool "no child is a zombie" false
        (List.exists (fun c -> proc_state c = 'Z') cs))

(* The coordinator keeps every running query and the latest
   [max_settled] ended ones.  One computed answer and then
   [max_settled + 1] warm ones: the first warm id answers the 404 of
   an unknown id, the next, the oldest kept, and the last read [done],
   and /stats still counts every query. *)
let test_settled_queries_are_bounded () =
  let limit = Slx_serve.Serve.max_settled in
  let fields = {|"impl": "cas", "depth": 4|} in
  with_server ~store:(temp_store ()) (fun port ->
      let src, _ = query port fields in
      check_bool "computed" true (src = Some "full");
      let submit () =
        int_field
          (last_json
             (exchange port
                (request ~meth:"POST" ~path:"/query" ("{" ^ fields ^ "}"))))
          "id"
      in
      let first = submit () in
      for _ = 1 to limit - 1 do
        ignore (submit ())
      done;
      let last = submit () in
      let status id =
        exchange port
          (request ~meth:"GET" ~path:(Printf.sprintf "/status/%d" id) "")
      in
      let forgotten = status first in
      Alcotest.(check string)
        "the first warm id is forgotten" "HTTP/1.1 404 Not Found"
        (status_line forgotten);
      Alcotest.(check (option string))
        "its 404" (Some (Printf.sprintf "no query %d" first))
        (Option.bind (Json.member "error" (last_json forgotten)) Json.str);
      List.iter
        (fun (name, id) ->
          Alcotest.(check (option string))
            name (Some "done")
            (Option.bind (Json.member "state" (last_json (status id)))
               Json.str))
        [
          ("the oldest kept reads done", first + 1);
          ("the last reads done", last);
        ];
      check_int "/stats counts every query" (limit + 2)
        (stat (stats port) [ "queries" ]))

(* [slx query] relays a refusal's body and exits 1: a query the
   decoder refuses (400) and the status of an id that never was
   (404). *)
let test_cli_query_refused_exits_1 () =
  with_server ~store:(temp_store ()) (fun port ->
      List.iter
        (fun (args, member, expected) ->
          let rc, j =
            cli_last_json
              (Printf.sprintf "query --port %d %s 2>/dev/null" port args)
          in
          check_int ("slx query " ^ args ^ ": exit code") 1 rc;
          Alcotest.(check (option string))
            ("slx query " ^ args ^ ": body") (Some expected)
            (Option.bind (Json.member member j) Json.str))
        [
          ("--kind live --impl bogus", "message",
           "unknown implementation \"bogus\"");
          ("--status 999", "error", "no query 999");
        ])

let cli_json args =
  let rc, j = cli_last_json (args ^ " --json") in
  check_int ("exit code of slx " ^ args) 0 rc;
  j

let history_digest j =
  stat j [ "stats"; "history_digest" ]

(* The text report prints the witness script on one line, crash
   included, so a reader or script taking that line gets all of it. *)
let test_cli_witness_one_line () =
  let out = Filename.temp_file "slx_serve_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      check_int "exit code" 0
        (Sys.command
           (Printf.sprintf "%s explore --impl selfish --depth 8 --crashes 1 > %s"
              slx_bin out));
      let lines =
        String.split_on_char '\n'
          (In_channel.with_open_bin out In_channel.input_all)
      in
      Alcotest.(check (list string))
        "witness line" [ "witness script: I1(0) I2(1) C2" ]
        (List.filter (String.starts_with ~prefix:"witness") lines))

(* A negative live verdict says which tree it covers: the DPOR-reduced
   one by default, pointing to --no-dpor, or the whole bounded tree
   under --no-dpor; --json carries the same as "exhaustive". *)
let test_cli_negative_live_verdict_names_its_tree () =
  let args = "live-explore --impl cas --depth 6" in
  let verdict_line flags =
    let out = Filename.temp_file "slx_serve_test" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        check_int "exit code" 0
          (Sys.command (Printf.sprintf "%s %s%s > %s" slx_bin args flags out));
        List.filter
          (String.starts_with ~prefix:"no fair")
          (String.split_on_char '\n'
             (In_channel.with_open_bin out In_channel.input_all)))
  in
  Alcotest.(check (list string))
    "reduced"
    [
      "no fair non-progressing cycle within depth 6 on the DPOR-reduced \
       tree: (1,1)-freedom is not excluded there (the reduced tree can miss \
       a lasso under the depth bound; --no-dpor searches exhaustively)";
    ]
    (verdict_line "");
  Alcotest.(check (list string))
    "exhaustive"
    [
      "no fair non-progressing cycle within depth 6 (exhaustive): \
       (1,1)-freedom is not excluded on this bounded graph";
    ]
    (verdict_line " --no-dpor");
  List.iter
    (fun (flags, expected) ->
      Alcotest.(check (option bool))
        ("\"exhaustive\"" ^ flags) (Some expected)
        (match Json.member "exhaustive" (cli_json (args ^ flags)) with
        | Some (Json.Bool b) -> Some b
        | _ -> None))
    [ ("", false); (" --no-dpor", true) ]

(* A served record carries its 63-bit digest exactly (the served
   answer's digest is the store-less CLI's), and the CLI answers the
   same query warm from it. *)
let test_cli_warm_serves_served_record () =
  let store = temp_store () in
  let served =
    with_server ~store (fun port ->
        let src, r =
          query port "\"impl\": \"cas\", \"crashes\": 1, \"depth\": 8"
        in
        check_bool "served full" true (src = Some "full");
        check_outcome "served" "ok" r;
        (* The one worker's peak resident set, where /proc can tell. *)
        (match Json.member "worker_hwm_kb" (stats port) with
        | Some (Json.Arr [ Json.Int kb ]) ->
            check_bool "worker_hwm_kb > 0" true (kb > 0)
        | Some (Json.Arr [ Json.Null ])
          when Slx_obs.Proc_status.kb "VmHWM" = None -> ()
        | j ->
            Alcotest.failf "worker_hwm_kb: %s"
              (Option.fold ~none:"missing" ~some:Json.to_string j));
        r)
  in
  let args = "explore --impl cas --depth 8 --crashes 1" in
  let cold = cli_json args in
  check_int "served digest = store-less digest" (history_digest cold)
    (int_field served "digest");
  check_int "served runs = store-less runs" (int_field cold "runs")
    (int_field served "runs");
  let warm = cli_json (args ^ " --store " ^ store) in
  Alcotest.(check (option string))
    "CLI warm-serves the served record" (Some "warm")
    (Option.bind (Json.member "store_source" warm) Json.str);
  check_int "warm runs = store-less runs" (int_field cold "runs")
    (int_field warm "runs");
  (* The same for a lasso: Theorem 5.2's register (1,2) cell. *)
  let _, served =
    with_server ~store (fun port ->
        query port
          "\"kind\": \"live\", \"impl\": \"register\", \"property\": \"1,2\", \
           \"depth\": 10")
  in
  check_outcome "served live" "lasso" served;
  let warm =
    cli_json
      ("live-explore --impl register --property 1,2 --depth 10 --store "
     ^ store)
  in
  Alcotest.(check (option string))
    "CLI warm-serves the served lasso" (Some "warm")
    (Option.bind (Json.member "store_source" warm) Json.str);
  List.iter
    (fun (cli, served_k) ->
      Alcotest.(check string)
        ("warm " ^ cli ^ " = served " ^ served_k)
        (Json.to_string (Option.get (Json.member served_k served)))
        (Json.to_string (Option.get (Json.member cli warm))))
    [ ("stem", "stem_pp"); ("cycle", "cycle_pp") ]

(* A store path and an implementation name are outside text: they come
   back as JSON strings that parse, not as OCaml string literals. *)
let test_outside_text_is_json () =
  let dir = Filename.temp_dir "slx_serve_test" "" in
  let store = Filename.concat dir "v\xc3\xa9rif.store" in
  at_exit (fun () ->
      (try Sys.remove store with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ());
  with_server ~store (fun port ->
      Alcotest.(check (option string))
        "store.path" (Some store)
        (Option.bind (Json.member "store" (stats port)) (fun s ->
             Option.bind (Json.member "path" s) Json.str));
      let resp =
        exchange port
          (request ~meth:"POST" ~path:"/query" "{\"impl\": \"\xc3\xa9x\"}")
      in
      Alcotest.(check string)
        "unknown impl" "HTTP/1.1 400 Bad Request" (status_line resp);
      Alcotest.(check (option string))
        "decoded message" (Some "unknown implementation \"\xc3\xa9x\"")
        (Option.bind (Json.member "message" (last_json resp)) Json.str))

(* A deeper query over a served shallower record is computed in full:
   the store answers exact queries warm and nothing else, so the deeper
   answer does the store-less step count. *)
let test_deeper_query_runs_full () =
  let fields d =
    Printf.sprintf "\"impl\": \"register\", \"crashes\": 1, \"depth\": %d" d
  in
  let store_less =
    parse_result (Queries.run_task (spec_of ("{" ^ fields 10 ^ "}")) Queries.Full)
  in
  with_server ~store:(temp_store ()) (fun port ->
      let src, _ = query port (fields 8) in
      check_bool "shallow served full" true (src = Some "full");
      let src, deep = query port (fields 10) in
      check_bool "deeper served full" true (src = Some "full");
      check_int "deeper runs = store-less" (int_field store_less "runs")
        (int_field deep "runs");
      check_int "deeper digest = store-less" (int_field store_less "digest")
        (int_field deep "digest");
      check_int "deeper steps = store-less" (int_field store_less "steps")
        (int_field deep "steps");
      let src, _ = query port (fields 10) in
      check_bool "repeat served warm" true (src = Some "warm");
      let st = stats port in
      check_int "two records" 2 (stat st [ "store"; "records" ]);
      check_int "two colds" 2 (stat st [ "store"; "colds" ]);
      check_int "one warm hit" 1 (stat st [ "store"; "warm_hits" ]))

(* A served warm hit does not rewrite the store: its count is exact in
   /stats at once and reaches disk with the next save. *)
let test_warm_hit_not_committed () =
  let store = temp_store () in
  let fields d =
    Printf.sprintf "\"impl\": \"cas\", \"crashes\": 1, \"depth\": %d" d
  in
  let on_disk () = In_channel.with_open_bin store In_channel.input_all in
  let disk_warm () = (Store.counters (Store.open_ store)).Store.c_warm_hits in
  with_server ~store (fun port ->
      let src, _ = query port (fields 6) in
      check_bool "first query full" true (src = Some "full");
      let before = on_disk () in
      let src, _ = query port (fields 6) in
      check_bool "repeat served warm" true (src = Some "warm");
      check_int "/stats counts the warm hit" 1
        (stat (stats port) [ "store"; "warm_hits" ]);
      check_bool "warm hit leaves the store file unchanged" true
        (on_disk () = before);
      check_int "no warm hit on disk yet" 0 (disk_warm ());
      let src, _ = query port (fields 7) in
      check_bool "new depth full" true (src = Some "full");
      check_int "the next save commits the warm hit" 1 (disk_warm ()))

(* The CLI's --store path and the serve coordinator answer through one
   policy and store one record per computed answer: the same sequence
   of queries leaves both stores with the same counters and records,
   and a warm live answer reports the cold run's run count either
   way.  The third query re-asks the live one under another
   [max_period]: a cold miss, not a rejected record. *)
let test_cli_and_serve_agree () =
  let live =
    "\"kind\": \"live\", \"impl\": \"cas\", \"crashes\": 1, \"depth\": 10"
  in
  let selfish = "\"impl\": \"selfish\", \"depth\": 8" in
  let sequence =
    [
      (live, "cold");
      (live, "warm");
      (live ^ ", \"max_period\": 2", "cold");
      (selfish, "cold");
      (selfish, "warm");
    ]
  in
  let summary store =
    let st = Store.open_ store in
    let c = Store.counters st in
    ( [
        c.Store.c_queries; c.Store.c_warm_hits; c.Store.c_colds;
        c.Store.c_rejected;
      ],
      List.map Store.record_to_string (Store.records st) )
  in
  (* The runs a live answer reports, or -1 for a safety answer. *)
  let cli_store = temp_store () in
  let cli_runs =
    List.map
      (fun (fields, source) ->
        let answer, src =
          Queries.run ~store:(Store.open_ cli_store)
            (spec_of ("{" ^ fields ^ "}"))
        in
        Alcotest.(check (option string))
          ("CLI source of " ^ fields) (Some source)
          (Option.map (Format.asprintf "%a" Slx_store.Persist.pp_source) src);
        match answer with
        | Queries.Live r -> r.Live_explore.stats.Explore_stats.runs
        | Queries.Safety _ -> -1)
      sequence
  in
  let serve_store = temp_store () in
  let serve_runs =
    with_server ~store:serve_store (fun port ->
        List.map
          (fun (fields, source) ->
            let src, r = query port fields in
            Alcotest.(check (option string))
              ("serve source of " ^ fields)
              (Some (if source = "cold" then "full" else source))
              src;
            if String.starts_with ~prefix:live fields then int_field r "runs"
            else -1)
          sequence)
  in
  Alcotest.(check (list int)) "live runs: CLI = serve" cli_runs serve_runs;
  Alcotest.(check int) "warm live runs = cold" (List.nth cli_runs 0)
    (List.nth cli_runs 1);
  let cli_counters, cli_records = summary cli_store
  and serve_counters, serve_records = summary serve_store in
  Alcotest.(check (list int))
    "CLI counters: 5 queries, 2 warm, 3 cold, 0 rejected"
    [ 5; 2; 3; 0 ] cli_counters;
  Alcotest.(check (list int)) "serve counters = CLI counters" cli_counters
    serve_counters;
  Alcotest.(check (list string)) "serve records = CLI records" cli_records
    serve_records

(* Every line a streamed waiter reads is the query's status, as
   /status prints it: the last lines of a computed and of a warm answer
   have the same members, a timed-out query's has them but [result],
   and a finished query's [elapsed_s] is its duration, the same in
   /status 50 ms apart as in its waiter's last line. *)
let test_one_status_rendering () =
  let fields = {|"impl": "cas", "depth": 5|} in
  let members j =
    match j with
    | Json.Obj kvs -> List.sort compare (List.map fst kvs)
    | _ -> Alcotest.failf "not an object: %s" (Json.to_string j)
  in
  let elapsed j = Option.bind (Json.member "elapsed_s" j) Json.num in
  with_server ~store:(temp_store ()) (fun port ->
      let wait fields =
        last_json
          (exchange port
             (request ~meth:"POST" ~path:"/query"
                ("{" ^ fields ^ ", \"wait\": true}")))
      in
      let computed = wait fields in
      let warm = wait fields in
      let source j = Option.bind (Json.member "source" j) Json.str in
      Alcotest.(check (option string)) "computed" (Some "full")
        (source computed);
      Alcotest.(check (option string)) "warm" (Some "warm") (source warm);
      Alcotest.(check (list string))
        "a warm and a computed answer have the same members"
        (members computed) (members warm);
      Alcotest.(check (list string)) "the members clients read"
        [ "elapsed_s"; "id"; "result"; "source"; "spec"; "state" ]
        (members computed);
      let timed_out = wait (slow_fields ^ {|, "timeout": 1e-6|}) in
      Alcotest.(check (option string)) "timed out" (Some "timeout")
        (Option.bind (Json.member "state" timed_out) Json.str);
      Alcotest.(check (list string)) "a timeout has them but the result"
        (List.filter (( <> ) "result") (members computed))
        (members timed_out);
      let status () =
        last_json
          (exchange port
             (request ~meth:"GET"
                ~path:(Printf.sprintf "/status/%d" (int_field computed "id"))
                ""))
      in
      let first = status () in
      Unix.sleepf 0.05;
      let second = status () in
      Alcotest.(check (option (float 0.)))
        "a finished query's elapsed_s stops counting" (elapsed first)
        (elapsed second);
      Alcotest.(check (option (float 0.)))
        "/status reads the duration the waiter read" (elapsed computed)
        (elapsed first);
      check_int "no query is active" 0 (stat (stats port) [ "active" ]))

(* Streamed waiters that hang up while their query runs.  Four
   [--wait] clients attach to a query that computes for about a second,
   read the stream header and close; the worker's heartbeats (every
   0.2 s) then find them gone.  Once the query has settled, the
   coordinator holds as many fds as before the clients came: each
   dropped waiter was closed.  Skipped where /proc has no fd
   directory. *)
let test_hung_up_waiters_are_closed () =
  let long_fields =
    {|"kind": "live", "impl": "cas", "property": "obstruction", "n": 3, |}
    ^ {|"depth": 16, "crashes": 1, "max_period": 4, "pump": 40|}
  in
  with_server_pid ~store:(temp_store ()) (fun pid port ->
      let fd_dir = Printf.sprintf "/proc/%d/fd" pid in
      if not (Sys.file_exists fd_dir) then begin
        print_endline "skipped: no fd directory in /proc";
        Alcotest.skip ()
      end;
      let fds () = Array.length (Sys.readdir fd_dir) in
      let src, _ = query port {|"impl": "cas", "depth": 4|} in
      check_bool "the worker is up" true (src = Some "full");
      let baseline = fds () in
      let ticket =
        exchange port
          (request ~meth:"POST" ~path:"/query" ("{" ^ long_fields ^ "}"))
      in
      let id = int_field (last_json ticket) "id" in
      let hang_up () =
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
            let raw =
              request ~meth:"POST" ~path:"/query"
                ("{" ^ long_fields ^ ", \"wait\": true}")
            in
            ignore (Unix.write_substring fd raw 0 (String.length raw));
            (* The stream header: the waiter is attached. *)
            check_bool "a waiter reads the stream header" true
              (Unix.read fd (Bytes.create 256) 0 256 > 0))
      in
      for _ = 1 to 4 do
        hang_up ()
      done;
      let state () =
        Json.member "state"
          (last_json
             (exchange port
                (request ~meth:"GET" ~path:(Printf.sprintf "/status/%d" id) "")))
      in
      let rec settle tries =
        if state () = Some (Json.Str "running") && tries > 0 then begin
          Unix.sleepf 0.05;
          settle (tries - 1)
        end
      in
      settle 1200;
      Alcotest.(check (option string))
        "the query is done" (Some "done")
        (Option.bind (state ()) Json.str);
      let rec fds_settle tries =
        let k = fds () in
        if k <> baseline && tries > 0 then begin
          Unix.sleepf 0.05;
          fds_settle (tries - 1)
        end
        else k
      in
      check_int "the coordinator's fds are back at their baseline" baseline
        (fds_settle 40))

let suites =
  [
    ( "serve.task",
      [
        Alcotest.test_case "Full steps = store-less engine" `Quick
          test_full_task_steps;
        Alcotest.test_case "explore cas/register, n=2 and n=3" `Quick
          test_full_task_explore;
        Alcotest.test_case "counterexample (selfish)" `Quick
          test_full_task_counterexample;
        Alcotest.test_case "lasso (live register (1,2))" `Quick
          test_full_task_lasso;
        Alcotest.test_case "clean live cas" `Quick test_full_task_live_clean;
        Alcotest.test_case "result members" `Quick test_result_members;
      ] );
    ( "serve.spec",
      [
        Alcotest.test_case "qid binds every field but depth and budgets"
          `Quick test_qid_binds_the_record;
        Alcotest.test_case "a live key binds the freedom point" `Quick
          test_key_binds_the_point;
        Alcotest.test_case "qids keep the values stored records carry"
          `Quick test_qid_values_pinned;
      ] );
    ( "serve.input",
      [
        Alcotest.test_case "CLI refuses out-of-range bounds" `Quick
          test_cli_out_of_range_refused;
        Alcotest.test_case "game --adversary tie obeys --steps" `Quick
          test_cli_tie_steps;
        Alcotest.test_case "CLI refuses the retired reduction flags" `Quick
          test_cli_retired_flags_refused;
        Alcotest.test_case "decoder refuses out-of-range bounds" `Quick
          test_decoder_out_of_range_refused;
        Alcotest.test_case "CLI prints the witness script on one line" `Quick
          test_cli_witness_one_line;
        Alcotest.test_case "a negative live verdict names its tree" `Quick
          test_cli_negative_live_verdict_names_its_tree;
      ] );
    ( "serve.warm",
      [
        Alcotest.test_case "serves a computed verdict" `Quick
          test_warm_serves_computed;
        Alcotest.test_case "refuses an unvouched record" `Quick
          test_warm_refuses;
      ] );
    ( "serve.worker",
      [
        Alcotest.test_case "answers a task line" `Quick
          test_worker_answers_task_line;
      ] );
    ( "serve.coordinator",
      [
        Alcotest.test_case "a bad request answers 400 and serving goes on"
          `Quick test_bad_requests_answer_400;
        Alcotest.test_case "an idle flood past FD_SETSIZE is survived" `Quick
          test_idle_flood_is_survived;
        Alcotest.test_case "the CLI warm-serves a served record" `Quick
          test_cli_warm_serves_served_record;
        Alcotest.test_case "a deeper query runs full" `Quick
          test_deeper_query_runs_full;
        Alcotest.test_case "outside text comes back as JSON" `Quick
          test_outside_text_is_json;
        Alcotest.test_case "the CLI and serve agree on a store" `Quick
          test_cli_and_serve_agree;
        Alcotest.test_case "a served warm hit is committed by the next save"
          `Quick test_warm_hit_not_committed;
        Alcotest.test_case "a timed-out query's worker is killed and frees its slot"
          `Quick test_deadline_kills_and_frees_the_slot;
        Alcotest.test_case "one rendering of a query's state" `Quick
          test_one_status_rendering;
        Alcotest.test_case "a waiter that hangs up is closed" `Quick
          test_hung_up_waiters_are_closed;
        Alcotest.test_case "a killed worker's query is re-leased" `Quick
          test_killed_worker_is_re_leased;
        Alcotest.test_case "a stopped worker's timed-out query frees the service"
          `Quick test_stopped_worker_timeout_frees_the_service;
        Alcotest.test_case "a deadline fires on time" `Quick
          test_deadline_fires_on_time;
        Alcotest.test_case "shutdown does not wait for a stopped worker" `Quick
          test_shutdown_does_not_wait_for_a_stopped_worker;
        Alcotest.test_case "dead workers leave no zombie" `Quick
          test_dead_workers_are_reaped;
        Alcotest.test_case "only the latest settled queries are kept" `Quick
          test_settled_queries_are_bounded;
        Alcotest.test_case "slx query exits 1 when the server refuses" `Quick
          test_cli_query_refused_exits_1;
      ] );
  ]
