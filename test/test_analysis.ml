(* The conflict-soundness sanitizer: audit sweeps, fixtures, the
   happens-before certifier, the commutation oracle, footprint algebra
   properties, and the sanitize-changes-nothing differential. *)

open Slx_sim
open Slx_core
open Support
module Audit = Slx_analysis.Audit
module Registry = Slx_analysis.Audit_registry
module Fixtures = Slx_analysis.Fixtures
module Hb = Slx_analysis.Hb

(* ------------------------------------------------------------------ *)
(* The registry sweep: every registered implementation is clean.       *)

let test_registry_clean () =
  List.iter
    (fun case ->
      let r = Audit.run_case ~bound:`Runtest ~max_hb_runs:16 case in
      check_bool
        (Printf.sprintf "%s audits clean: %s" r.Audit.cr_name
           (Format.asprintf "%a" Audit.pp_case_result r))
        true (Audit.case_clean r);
      check_bool
        (r.Audit.cr_name ^ " swept at least one run")
        true (r.Audit.cr_runs > 0);
      check_bool
        (r.Audit.cr_name ^ " certified at least one run")
        true
        (r.Audit.cr_hb_runs > 0))
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Fixtures: each mis-declaration is caught by the intended layer.     *)

let run_fixture ?detect ?oracle name =
  match Registry.select ~name (Registry.fixture_cases ()) with
  | [ case ] -> Audit.run_case ~bound:`Runtest ?detect ?oracle case
  | _ -> Alcotest.failf "fixture %s not registered exactly once" name

let test_leaky_caught_with_witness () =
  let r = run_fixture "fixture-leaky" in
  match r.Audit.cr_witness with
  | None -> Alcotest.fail "leaky fixture audited clean"
  | Some w ->
      check_bool "undeclared touch" true
        (w.Audit.w_violation.Runtime.v_kind = Runtime.Undeclared_touch);
      check_bool "the leak is a write" true w.Audit.w_violation.Runtime.v_write;
      check_bool "witness replays on a fresh instance" true w.Audit.w_replayed;
      (* The witness is the lex-least violating script of the tree:
         pinning it guards the DFS order and the pretty-printer. *)
      Alcotest.(check (list string))
        "pinned witness script"
        [ "invoke p1 (poke 1)"; "schedule p1" ]
        w.Audit.w_script

let test_write_under_read_caught () =
  let r = run_fixture "fixture-write-under-read" in
  match r.Audit.cr_witness with
  | None -> Alcotest.fail "write-under-read fixture audited clean"
  | Some w ->
      check_bool "undeclared (write under read declaration)" true
        (w.Audit.w_violation.Runtime.v_kind = Runtime.Undeclared_touch
        && w.Audit.w_violation.Runtime.v_write);
      check_bool "witness replays" true w.Audit.w_replayed

let test_nested_escape_caught () =
  let r = run_fixture "fixture-nested-escape" in
  match r.Audit.cr_witness with
  | None -> Alcotest.fail "nested-escape fixture audited clean"
  | Some w ->
      check_bool "flagged at nesting time" true
        (w.Audit.w_violation.Runtime.v_kind = Runtime.Undeclared_nesting);
      check_bool "witness replays" true w.Audit.w_replayed

let test_phantom_linted_not_failed () =
  let r = run_fixture "fixture-phantom" in
  check_bool "over-declaration is not a violation" true (Audit.case_clean r);
  check_bool "the phantom object is linted never-touched" true
    (List.exists
       (function Audit.Never_touched _ -> true | _ -> false)
       r.Audit.cr_lints)

let test_nested_ok_clean () =
  let r = run_fixture "fixture-nested-ok" in
  check_bool "legal nesting audits clean" true (Audit.case_clean r);
  check_bool "no violation witness" true (r.Audit.cr_witness = None);
  check_bool "runs were swept (nested atomics ran inline)" true
    (r.Audit.cr_runs > 0)

let test_clean_fixture_clean () =
  let r = run_fixture "fixture-clean" in
  check_bool "clean twin audits clean" true (Audit.case_clean r);
  Alcotest.(check (list string)) "and lint-free" []
    (List.map (Format.asprintf "%a" Audit.pp_lint) r.Audit.cr_lints)

let test_hb_catches_leaky_without_detection () =
  (* With the race detector disarmed the sweep completes; the HB
     certifier must independently flag the (Poke, Peek) conflict whose
     declarations commute. *)
  let r = run_fixture ~detect:false "fixture-leaky" in
  check_bool "no race-detector witness when disarmed" true
    (r.Audit.cr_witness = None);
  check_bool "runs were swept to completion" true (r.Audit.cr_runs > 0);
  check_bool "hb certifier reports the mismatch" true
    (r.Audit.cr_hb_mismatch <> None)

let test_oracle_clean_on_clean_fixture () =
  let r = run_fixture ~oracle:true "fixture-clean" in
  check_bool "oracle exercised some commuting pair" true
    (r.Audit.cr_oracle_checks > 0);
  Alcotest.(check (list string)) "and found no divergence" []
    r.Audit.cr_oracle_failures

let test_oracle_flags_leaky () =
  (* Poke's pending footprint (W a) and Peek's (R b) commute by
     declaration, but Poke secretly writes b, so the two orders give
     Peek different responses — the oracle must see the divergence. *)
  let r = run_fixture ~detect:false ~oracle:true "fixture-leaky" in
  check_bool "oracle exercised the leaky pair" true
    (r.Audit.cr_oracle_checks > 0);
  check_bool "and caught the divergence" true
    (r.Audit.cr_oracle_failures <> [])

(* ------------------------------------------------------------------ *)
(* The happens-before certifier on hand-built runs.                    *)

let acc obj write = { Runtime.obj; write }

let step p decl touched =
  { Hb.hs_proc = p; hs_decl = decl; hs_touched = touched }

let w_fp obj = Runtime.of_accesses [ acc obj true ]
let r_fp obj = Runtime.of_accesses [ acc obj false ]

let test_hb_certifies_declared_conflict () =
  let steps =
    [ step 1 (w_fp 1) [ acc 1 true ]; step 2 (w_fp 1) [ acc 1 true ] ]
  in
  match Hb.certify ~n:2 steps with
  | Error m -> Alcotest.failf "spurious mismatch: %a" Hb.pp_mismatch m
  | Ok c ->
      check_int "one cross-checked conflict pair" 1 c.Hb.hb_checks;
      check_int "one hb edge" 1 c.Hb.hb_edges

let test_hb_flags_commuting_declarations () =
  (* Both steps touch object 1, but their declarations talk about
     disjoint objects — exactly the lie POR would prune on. *)
  let steps =
    [ step 1 (w_fp 1) [ acc 1 true ]; step 2 (w_fp 2) [ acc 1 true ] ]
  in
  match Hb.certify ~n:2 steps with
  | Ok _ -> Alcotest.fail "commuting declarations over a real conflict passed"
  | Error m ->
      check_int "the conflicting object is reported" 1 m.Hb.mm_obj;
      check_bool "conflict involves a write" true m.Hb.mm_write;
      check_int "earlier step index" 0 m.Hb.mm_earlier;
      check_int "later step index" 1 m.Hb.mm_later

let test_hb_reads_do_not_conflict () =
  let steps =
    [ step 1 (r_fp 1) [ acc 1 false ]; step 2 (r_fp 1) [ acc 1 false ] ]
  in
  match Hb.certify ~n:2 steps with
  | Error m -> Alcotest.failf "read/read flagged: %a" Hb.pp_mismatch m
  | Ok c ->
      check_int "no conflict pairs" 0 c.Hb.hb_checks;
      check_int "no edges" 0 c.Hb.hb_edges

let test_hb_same_proc_never_conflicts () =
  let steps =
    [ step 1 (w_fp 1) [ acc 1 true ]; step 1 (r_fp 2) [ acc 1 true ] ]
  in
  match Hb.certify ~n:2 steps with
  | Error m -> Alcotest.failf "same-process pair flagged: %a" Hb.pp_mismatch m
  | Ok c -> check_int "program order needs no cross-check" 0 c.Hb.hb_checks

let test_hb_edges_are_non_redundant () =
  (* p2 reads the same write twice: the second read is already ordered
     after p1's write, so only one edge is counted. *)
  let steps =
    [
      step 1 (w_fp 1) [ acc 1 true ];
      step 2 (r_fp 1) [ acc 1 false ];
      step 2 (r_fp 1) [ acc 1 false ];
    ]
  in
  match Hb.certify ~n:2 steps with
  | Error m -> Alcotest.failf "spurious mismatch: %a" Hb.pp_mismatch m
  | Ok c ->
      check_int "two conflicting pairs cross-checked" 2 c.Hb.hb_checks;
      check_int "but only one non-redundant edge" 1 c.Hb.hb_edges

(* ------------------------------------------------------------------ *)
(* Footprint algebra properties.                                       *)

(* Ids in the direct-bit window, past it and below zero, so the spill
   lists take part in every law. *)
let gen_access =
  QCheck2.Gen.(
    let* obj = oneof [ int_range 0 4; int_range 60 64; int_range (-2) (-1) ] in
    let* write = bool in
    return { Runtime.obj; write })

let gen_footprint =
  QCheck2.Gen.(
    let* roll = int_range 0 10 in
    if roll = 0 then return Runtime.opaque
    else
      let* accs = list_size (int_range 1 4) gen_access in
      return (Runtime.of_accesses accs))

let prop_commute_symmetric =
  QCheck2.Test.make ~name:"commute is symmetric" ~count:500
    QCheck2.Gen.(pair gen_footprint gen_footprint)
    (fun (a, b) -> Runtime.commute a b = Runtime.commute b a)

let prop_commute_union_monotone =
  QCheck2.Test.make
    ~name:"commuting with a union = commuting with both parts" ~count:500
    QCheck2.Gen.(triple gen_footprint gen_footprint gen_footprint)
    (fun (a, b, c) ->
      Runtime.commute (Runtime.union a b) c
      = (Runtime.commute a c && Runtime.commute b c))

let prop_covers_union =
  QCheck2.Test.make ~name:"a union covers both sides" ~count:500
    QCheck2.Gen.(pair gen_footprint gen_footprint)
    (fun (a, b) ->
      let u = Runtime.union a b in
      Runtime.covers u a && Runtime.covers u b)

let prop_of_accesses_union_homomorphism =
  QCheck2.Test.make
    ~name:"of_accesses (l1 @ l2) = union (of_accesses l1) (of_accesses l2)"
    ~count:500
    QCheck2.Gen.(
      pair (list_size (int_range 0 5) gen_access)
        (list_size (int_range 0 5) gen_access))
    (fun (l1, l2) ->
      Runtime.of_accesses (l1 @ l2)
      = Runtime.union (Runtime.of_accesses l1) (Runtime.of_accesses l2))

(* Nesting composition, observed through a recording shadow: a nested
   declaration covered by the pending one runs inline (no effect
   handler in scope), its touches check against the composed effective
   footprint, and the step log exposes declared vs effective. *)
let test_nesting_composes_effective_footprint () =
  let sh = Runtime.make_shadow ~record:true () in
  Runner.Cursor.with_ ~n:1
    ~factory:(fun ~n:_ ->
      let c = Fixtures.cell 0 in
      fun ~proc:_ () ->
        Runtime.atomic_access ~obj:(snd c) ~write:true (fun () ->
            Fixtures.store c 1;
            Runtime.atomic_access ~obj:(snd c) ~write:false (fun () ->
                ignore (Fixtures.load c))))
    ~shadow:sh
    ~prefix:[ Driver.Invoke (1, ()); Driver.Schedule 1 ]
    ignore;
  check_int "no violations" 0 (Runtime.shadow_violation_count sh);
  match Runtime.shadow_steps sh with
  | [ log ] ->
      let obj =
        match Runtime.accesses log.Runtime.declared with
        | Some [ a ] -> a.Runtime.obj
        | _ -> Alcotest.fail "expected a single declared access"
      in
      check_bool "pending declaration is the outer write" true
        (log.Runtime.declared = Runtime.of_accesses [ acc obj true ]);
      check_bool "effective = declared ∪ nested (W absorbs R)" true
        (log.Runtime.effective = log.Runtime.declared);
      Alcotest.(check (list (pair int bool)))
        "touches in program order"
        [ (obj, true); (obj, false) ]
        (List.map
           (fun a -> (a.Runtime.obj, a.Runtime.write))
           log.Runtime.touched)
  | logs -> Alcotest.failf "expected one step log, got %d" (List.length logs)

(* ------------------------------------------------------------------ *)
(* Sanitize changes nothing: the engine differential.                  *)

let one_proposal = Slx_serve.Queries.safety_invoke

let explore_register ?cache ?(dpor = false) ?(symmetry = false)
    ?(sanitize = false) () =
  Explore.explore ~n:2
    ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
    ~invoke:one_proposal ~depth:8 ?cache ~dpor ~symmetry ~sanitize
    ~check:Slx_serve.Queries.check
    ()

let essence e =
  let s = e.Explore.stats in
  ( (match e.Explore.outcome with
    | Explore.Ok runs -> ("ok", runs)
    | Explore.Counterexample _ -> ("cex", 0)),
    s.Explore_stats.runs,
    s.Explore_stats.steps_executed,
    s.Explore_stats.history_digest )

let test_sanitize_changes_nothing () =
  let configs =
    [
      ("plain", fun sanitize -> explore_register ~sanitize ());
      ("cache-off", fun sanitize -> explore_register ~cache:false ~sanitize ());
      ( "dpor+symmetry",
        fun sanitize -> explore_register ~dpor:true ~symmetry:true ~sanitize ()
      );
    ]
  in
  List.iter
    (fun (name, run) ->
      let off = run false and on = run true in
      Alcotest.(check (pair (pair (pair string int) int) (pair int int)))
        (name ^ ": sanitizing changes nothing the engine computes")
        (let a, b, c, d = essence off in
         (((fst a, snd a), b), (c, d)))
        (let a, b, c, d = essence on in
         (((fst a, snd a), b), (c, d)));
      check_int
        (name ^ ": instrumented implementations declare truthfully")
        0 on.Explore.stats.Explore_stats.footprint_violations)
    configs

(* The two table walks, one reduction each, sanitized: the instances
   declare truthfully and stay safe, and the table hits, so a crash
   child that ends its run is checked after its table lookup.  Selfish
   consensus still breaks agreement under DPOR alone. *)
let test_sanitize_table_walks () =
  let explore factory ~depth ~crashes ~dpor =
    Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth
      ~max_crashes:crashes ~dpor ~symmetry:(not dpor) ~sanitize:true
      ~check:Slx_serve.Queries.check ()
  in
  List.iter
    (fun (impl, factory, depth) ->
      List.iter
        (fun (crashes, dpor) ->
          let name =
            Printf.sprintf "%s d%d c%d %s alone" impl depth crashes
              (if dpor then "dpor" else "symmetry")
          in
          let e = explore factory ~depth ~crashes ~dpor in
          let s = e.Explore.stats in
          check_bool (name ^ ": ok") true
            (match e.Explore.outcome with
            | Explore.Ok _ -> true
            | Explore.Counterexample _ -> false);
          check_int (name ^ ": no footprint violation") 0
            s.Explore_stats.footprint_violations;
          check_bool (name ^ ": the table hits") true
            (s.Explore_stats.cache_hits > 0))
        [ (1, true); (1, false); (2, true); (2, false) ])
    [
      ("register", (fun () -> Slx_consensus.Register_consensus.factory ()), 12);
      ("cas", (fun () -> Slx_consensus.Cas_consensus.factory ()), 10);
    ];
  check_bool "selfish d8 c2 dpor alone: counterexample" true
    (match
       (explore
          (fun () -> Slx_consensus.Selfish_consensus.factory ())
          ~depth:8 ~crashes:2 ~dpor:true)
         .Explore.outcome
     with
    | Explore.Counterexample _ -> true
    | Explore.Ok _ -> false)

let test_sanitize_counts_in_live_search () =
  let open Slx_liveness in
  let factory () = Slx_consensus.Register_consensus.factory ~max_rounds:8 () in
  let invoke = Slx_serve.Queries.live_invoke in
  let good = Slx_consensus.Consensus_type.good in
  let point = Freedom.make ~l:1 ~k:2 in
  let search sanitize =
    Live_explore.search ~n:2 ~factory ~invoke ~good ~point ~depth:6 ~sanitize
      ()
  in
  let off = search false and on = search true in
  check_bool "sanitize changes no liveness verdict" true
    ((match off.Live_explore.outcome with
     | Live_explore.Lasso c -> Some (c.Lasso.c_stem, c.Lasso.c_cycle)
     | Live_explore.No_fair_cycle -> None)
    = (match on.Live_explore.outcome with
      | Live_explore.Lasso c -> Some (c.Lasso.c_stem, c.Lasso.c_cycle)
      | Live_explore.No_fair_cycle -> None));
  check_int "and finds no violations in instrumented implementations" 0
    on.Live_explore.stats.Explore_stats.footprint_violations

(* The live corpus's register queries (test/golden/live_corpus.ml:
   the sweep, the live grid and the two counter pins), sanitized and
   not.  A sanitized walk builds every leaf, while an unsanitized one
   decides at its parent a leaf that closes no candidate, so the
   sanitized walk is the oracle for that rule: the outcome, the
   certificate and the work the rule must not change — nodes, runs,
   candidates and fair candidates — agree, and the shadow finds
   nothing. *)
let test_sanitize_live_corpus_register () =
  let spec ~property ~n ~depth ~crashes ~max_period dpor =
    Result.get_ok
      (Slx_serve.Queries.make ~kind:`Live ~impl:"register" ~property ~n ~depth
         ~crashes ~max_period ~pump:None ~dpor)
  in
  let both ~property ~n ~depth ~crashes ~max_period =
    [
      spec ~property ~n ~depth ~crashes ~max_period true;
      spec ~property ~n ~depth ~crashes ~max_period false;
    ]
  in
  let sweep =
    List.concat_map
      (fun property ->
        List.concat_map
          (fun (n, max_depth) ->
            List.concat_map
              (fun depth ->
                List.concat_map
                  (fun crashes ->
                    both ~property ~n ~depth ~crashes ~max_period:None)
                  [ 0; 1 ])
              (List.init (max_depth - 3) (fun i -> i + 4)))
          [ (2, 10); (3, 8) ])
      [ "obstruction"; "1,1"; "1,2"; "2,2"; "lock"; "wait" ]
  and grid =
    List.concat_map
      (fun property ->
        List.concat_map
          (fun max_period ->
            both ~property ~n:2 ~depth:12 ~crashes:1 ~max_period)
          [ None; Some 2 ])
      [ "obstruction"; "1,2"; "1,1" ]
  and pins =
    List.map
      (fun (n, depth, crashes) ->
        spec ~property:"obstruction" ~n ~depth ~crashes ~max_period:(Some 2)
          true)
      [ (2, 14, 1); (3, 11, 2) ]
  in
  let observe sanitize sp =
    match Slx_serve.Queries.run ~sanitize sp with
    | Slx_serve.Queries.Live r, _ ->
        let s = r.Slx_core.Live_explore.stats in
        ( (match r.Slx_core.Live_explore.outcome with
          | Slx_core.Live_explore.Lasso c ->
              Some (c.Slx_liveness.Lasso.c_stem, c.Slx_liveness.Lasso.c_cycle)
          | Slx_core.Live_explore.No_fair_cycle -> None),
          Explore_stats.
            [ s.nodes; s.runs; s.cycles_examined; s.fair_cycles ],
          s.Explore_stats.footprint_violations )
    | Slx_serve.Queries.Safety _, _ -> Alcotest.fail "not a live query"
  in
  List.iter
    (fun sp ->
      let name = Slx_serve.Queries.spec_to_json sp in
      let outcome, work, _ = observe false sp
      and outcome', work', violations = observe true sp in
      check_bool (name ^ ": outcome and certificate") true (outcome = outcome');
      Alcotest.(check (list int)) (name ^ ": work") work work';
      check_int (name ^ ": footprint violations") 0 violations)
    (sweep @ grid @ pins)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "analysis: audit",
      [
        quick "every registered implementation audits clean"
          test_registry_clean;
        quick "leaky fixture caught with pinned replayable witness"
          test_leaky_caught_with_witness;
        quick "write-under-read caught" test_write_under_read_caught;
        quick "nested escape caught" test_nested_escape_caught;
        quick "phantom over-declaration linted, not failed"
          test_phantom_linted_not_failed;
        quick "legal nesting audits clean" test_nested_ok_clean;
        quick "clean twin audits clean and lint-free"
          test_clean_fixture_clean;
        quick "hb certifier catches the leak with detection off"
          test_hb_catches_leaky_without_detection;
        quick "commutation oracle passes the clean fixture"
          test_oracle_clean_on_clean_fixture;
        quick "commutation oracle catches the leak" test_oracle_flags_leaky;
      ] );
    ( "analysis: happens-before",
      [
        quick "declared conflict certifies" test_hb_certifies_declared_conflict;
        quick "commuting declarations over a real conflict flagged"
          test_hb_flags_commuting_declarations;
        quick "read/read never conflicts" test_hb_reads_do_not_conflict;
        quick "program order needs no cross-check"
          test_hb_same_proc_never_conflicts;
        quick "vector clocks drop redundant edges"
          test_hb_edges_are_non_redundant;
      ] );
    ( "analysis: footprint algebra",
      [ quick "nesting composes the effective footprint"
          test_nesting_composes_effective_footprint ]
      @ qcheck
          [
            prop_commute_symmetric;
            prop_commute_union_monotone;
            prop_covers_union;
            prop_of_accesses_union_homomorphism;
          ] );
    ( "analysis: sanitize differential",
      [
        quick "sanitize changes nothing in the safety engines"
          test_sanitize_changes_nothing;
        quick "the table walks sanitize clean" test_sanitize_table_walks;
        quick "sanitize changes nothing in the fair-cycle search"
          test_sanitize_counts_in_live_search;
        quick "the live corpus's register queries sanitize alike"
          test_sanitize_live_corpus_register;
      ] );
  ]
