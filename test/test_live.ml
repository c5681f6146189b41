(* The fair-cycle search (Live_explore): Theorem 5.2's split found by
   exhaustive search, certificate pumping, and the cross-validation
   against the adversary-game classification. *)

open Slx_sim
open Slx_liveness
open Slx_core
open Support

let good = Slx_consensus.Consensus_type.good

let invoke = Slx_serve.Queries.live_invoke

let reg_factory ?(depth = 10) () =
  Slx_consensus.Register_consensus.factory ~max_rounds:(max 8 depth) ()

let search_register ?(depth = 10) ?(max_crashes = 0) point =
  Live_explore.search ~n:2
    ~factory:(fun () -> reg_factory ~depth ())
    ~invoke ~good ~point ~depth ~max_crashes ()

let search_cas ?(depth = 9) ?(max_crashes = 1) point =
  Live_explore.search ~n:2
    ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
    ~invoke ~good ~point ~depth ~max_crashes ()

(* A pump's verdict, its report dropped. *)
let failure r =
  Result.map_error
    (fun f -> (f.Lasso.reason, f.Lasso.repetition))
    (Result.map ignore r)

let lasso_exn name r =
  match r.Live_explore.outcome with
  | Live_explore.Lasso c -> c
  | Live_explore.No_fair_cycle -> Alcotest.failf "%s: expected a lasso" name

(* ------------------------------------------------------------------ *)
(* The acceptance split (Theorem 5.2 at n = 2).                        *)

let test_register_lasso_for_1_2 () =
  let r = search_register ~depth:8 (Freedom.make ~l:1 ~k:2) in
  let c = lasso_exn "register (1,2)" r in
  check_bool "cycle is non-empty" true (c.Lasso.c_cycle <> []);
  check_bool "some candidate cycles were examined" true
    (r.Live_explore.stats.Explore_stats.cycles_examined > 0);
  check_bool "a fair violating candidate was found" true
    (r.Live_explore.stats.Explore_stats.fair_cycles >= 1);
  (* The emitted certificate replays and pumps through a fresh
     instance. *)
  match Lasso.pump ~factory:(reg_factory ()) ~repetitions:4 c with
  | Error e -> Alcotest.failf "pump failed: %s" e.Lasso.reason
  | Ok rep ->
      check_bool "pumped report carries the bounded violation" true
        (Lasso.certified_violation ~good rep (Freedom.make ~l:1 ~k:2))

let test_register_no_lasso_for_1_1 () =
  (* Under solo windows (one crash allowed) the register consensus is
     obstruction-free: the search must exhaust the tree and find
     nothing — the positive half of the Theorem 5.2 split. *)
  let r = search_register ~depth:9 ~max_crashes:1 Freedom.obstruction_freedom in
  (match r.Live_explore.outcome with
  | Live_explore.No_fair_cycle -> ()
  | Live_explore.Lasso _ ->
      Alcotest.fail "register consensus is obstruction-free");
  check_bool "candidates were examined and rejected" true
    (r.Live_explore.stats.Explore_stats.cycles_examined > 0)

let test_register_lasso_for_2_2 () =
  let r = search_register ~depth:9 ~max_crashes:1 (Freedom.make ~l:2 ~k:2) in
  ignore (lasso_exn "register (2,2)" r)

let test_cas_no_lasso_anywhere () =
  (* CAS consensus is wait-free: no point of the grid is excluded. *)
  List.iter
    (fun point ->
      match (search_cas point).Live_explore.outcome with
      | Live_explore.No_fair_cycle -> ()
      | Live_explore.Lasso _ ->
          Alcotest.failf "CAS consensus: unexpected lasso for %s"
            (Format.asprintf "%a" Freedom.pp point))
    (Freedom.all ~n:2)

(* ------------------------------------------------------------------ *)
(* Determinism and engine configurations.                              *)

let test_witness_deterministic_across_configs () =
  let point = Freedom.make ~l:1 ~k:2 in
  let base = lasso_exn "base" (search_register ~depth:8 point) in
  let again = lasso_exn "again" (search_register ~depth:8 point) in
  let no_cache =
    lasso_exn "no cache"
      (Live_explore.search ~n:2
         ~factory:(fun () -> reg_factory ())
         ~invoke ~good ~point ~depth:8 ~cache:false ())
  in
  check_bool "same stem on a re-run" true (base.Lasso.c_stem = again.Lasso.c_stem);
  check_bool "same cycle on a re-run" true
    (base.Lasso.c_cycle = again.Lasso.c_cycle);
  check_bool "cache does not change the witness" true
    (base.Lasso.c_stem = no_cache.Lasso.c_stem
    && base.Lasso.c_cycle = no_cache.Lasso.c_cycle)

(* ------------------------------------------------------------------ *)
(* The suffix cache against [~cache:false].                            *)

let same_cert a b =
  match (a, b) with
  | Live_explore.Lasso x, Live_explore.Lasso y ->
      x.Lasso.c_stem = y.Lasso.c_stem
      && x.Lasso.c_cycle = y.Lasso.c_cycle
  | Live_explore.No_fair_cycle, Live_explore.No_fair_cycle -> true
  | _ -> false

let cache_pair ?max_period ?pump_ticks ~factory ~point ~depth ~max_crashes ()
    =
  let search cache =
    Live_explore.search ~n:2 ~factory ~invoke ~good ~point ~depth ~max_crashes
      ?max_period ?pump_ticks ~dpor:true ~cache ()
  in
  (search true, search false)

(* A hit credits its subtree's runs, so the cache may only lower
   [nodes] (the hit node's subtree is not walked); the verdict, the
   certificate and [runs] must not move. *)
let cache_agrees (on, off) =
  let s r = r.Live_explore.stats in
  same_cert on.Live_explore.outcome off.Live_explore.outcome
  && (s on).Explore_stats.runs = (s off).Explore_stats.runs
  && (s on).Explore_stats.nodes <= (s off).Explore_stats.nodes
  && ((s on).Explore_stats.cache_hits > 0
     || (s on).Explore_stats.nodes = (s off).Explore_stats.nodes)

let test_cache_hits_keep_results () =
  let reg () = reg_factory ~depth:14 () in
  let cas () = Slx_consensus.Cas_consensus.factory () in
  List.iter
    (fun (name, pair) ->
      let on, _ = pair in
      check_bool (name ^ ": the cache hits") true
        (on.Live_explore.stats.Explore_stats.cache_hits > 0);
      check_bool (name ^ ": same outcome, certificate and runs") true
        (cache_agrees pair))
    [
      ( "register (1,1) d=14 max_period 2",
        cache_pair ~factory:reg ~point:Freedom.obstruction_freedom ~depth:14
          ~max_crashes:1 ~max_period:2 () );
      ( "register (1,1) d=14 max_period 4",
        cache_pair ~factory:reg ~point:Freedom.obstruction_freedom ~depth:14
          ~max_crashes:1 ~max_period:4 () );
      ( "cas (1,1) d=13 max_period 4 pump 40",
        cache_pair ~factory:cas ~point:Freedom.obstruction_freedom ~depth:13
          ~max_crashes:1 ~max_period:4 ~pump_ticks:40 () );
      ( "register (1,2) d=12 max_period 2",
        cache_pair ~factory:reg ~point:(Freedom.make ~l:1 ~k:2) ~depth:12
          ~max_crashes:0 ~max_period:2 () );
    ]

let test_default_period_builds_no_cache () =
  (* At the default period bound no node is ever keyed: the cache is
     not built, and every counter but the clock matches [~cache:false]. *)
  let on, off =
    cache_pair
      ~factory:(fun () -> reg_factory ~depth:12 ())
      ~point:Freedom.obstruction_freedom ~depth:12 ~max_crashes:1 ()
  in
  let untimed r = { r.Live_explore.stats with Explore_stats.elapsed_ns = 0 } in
  check_int "no cache entries" 0
    on.Live_explore.stats.Explore_stats.cache_entries;
  check_bool "stats equal to ~cache:false" true (untimed on = untimed off);
  check_bool "same outcome" true
    (same_cert on.Live_explore.outcome off.Live_explore.outcome)

let prop_cache_transparent =
  QCheck2.Test.make ~name:"suffix cache keeps outcome, certificate and runs"
    ~count:20
    QCheck2.Gen.(
      tup4 (int_range 6 10) (int_range 1 5) (int_range 0 1)
        (oneofl [ Freedom.obstruction_freedom; Freedom.make ~l:1 ~k:2 ]))
    (fun (depth, max_period, max_crashes, point) ->
      cache_agrees
        (cache_pair
           ~factory:(fun () -> reg_factory ~depth ())
           ~point ~depth ~max_crashes ~max_period ()))

(* The decision a random [pick] makes at [c]'s configuration: a ready
   process's step or an idle one's invocation under [invoke], chosen
   by the pick's value, or with [crash] one pick in eight crashes a
   live process instead.  [None] when nothing is enabled. *)
let pick_decision ~crash ~invoke c pick =
  let view = Runner.Cursor.view c in
  let menu =
    List.concat_map
      (fun p ->
        match view.Driver.status p with
        | Runtime.Crashed -> []
        | _ when crash && pick mod 8 = 0 -> [ Driver.Crash p ]
        | Runtime.Ready -> [ Driver.Schedule p ]
        | Runtime.Idle ->
            Option.to_list
              (Option.map (fun inv -> Driver.Invoke (p, inv)) (invoke view p)))
      (Slx_history.Proc.all ~n:view.Driver.n)
  in
  match menu with
  | [] -> None
  | _ -> Some (List.nth menu (pick mod List.length menu))

(* The cell a {!Lasso.cell_code} encodes, as {!Lasso.tick_cells}
   prints it: 8-bit slots from the low end, each element
   [((p lsl 2) lor kind) + 1], kind 0-3 for a grant, an invocation, a
   response and a crash. *)
let rec cell_of_code code =
  if code = 0 then []
  else
    let e = (code land 0xff) - 1 in
    Printf.sprintf "p%d:%s" (e lsr 2)
      [| "step"; "inv"; "res"; "crash" |].(e land 3)
    :: cell_of_code (code lsr 8)

(* The search carries each tick's cell as one int ({!Lasso.cell_code})
   and never decodes it.  On random runs of every consensus
   implementation, up to the 16 processes the CLI allows, the codes
   decoded by [cell_of_code] are exactly the run's
   {!Lasso.tick_cells}, and two
   ticks get equal codes iff their cells are equal — so the periodicity
   test and the cache keys see the cells the certificates carry.  The
   selfish consensus answers within its invocation tick, so the
   invocation-plus-response cell is covered too. *)
let prop_cell_codes_match_tick_cells =
  let factories =
    [
      ("register", fun () -> reg_factory ~depth:8 ());
      ("cas", fun () -> Slx_consensus.Cas_consensus.factory ());
      ("selfish", fun () -> Slx_consensus.Selfish_consensus.factory ());
    ]
  in
  QCheck2.Test.make ~name:"cell codes decode to tick_cells" ~count:60
    ~print:(fun (impl, n, picks) ->
      Printf.sprintf "%s n=%d picks=[%s]" impl n
        (String.concat ";" (List.map string_of_int picks)))
    QCheck2.Gen.(
      triple
        (oneofl (List.map fst factories))
        (int_range 1 16)
        (list_size (int_range 0 40) (int_range 0 1_000)))
    (fun (impl, n, picks) ->
      Runner.Cursor.with_ ~n ~factory:(List.assoc impl factories ()) (fun c ->
          let codes =
            List.filter_map
              (fun pick ->
                Option.map
                  (fun d ->
                    let module H = Slx_history.History in
                    let before =
                      H.length (Runner.Cursor.view c).Driver.history
                    in
                    Runner.Cursor.apply c d;
                    let history = (Runner.Cursor.view c).Driver.history in
                    Lasso.cell_code d
                      (H.latest history (H.length history - before)))
                  (pick_decision ~crash:true ~invoke c pick))
              picks
          in
          let cells = Lasso.tick_cells (Runner.Cursor.report c ()) in
          List.map cell_of_code codes = cells
          && List.for_all2
               (fun a ca ->
                 List.for_all2 (fun b cb -> a = b = (ca = cb)) codes cells)
               codes cells))

(* Invocations are always offered in process order: the search prunes
   every idle process's invocation but the least one's, and the
   retired [~invoke_order] argument changes nothing.  That the pruned
   tree keeps every verdict and certificate is pinned by the golden
   live corpus (test/golden/live.expected). *)
let test_invoke_order_is_unconditional () =
  let point = Freedom.make ~l:1 ~k:2 in
  let search ?invoke_order () =
    Live_explore.search ~n:2
      ~factory:(fun () -> reg_factory ())
      ~invoke ~good ~point ~depth:8 ?invoke_order ()
  in
  let r = search () in
  let c = lasso_exn "default" r in
  check_bool "invocations were pruned" true
    (r.Live_explore.stats.Explore_stats.invoke_order_prunes > 0);
  check_bool "the witness pumps" true
    (Result.is_ok (Lasso.pump ~factory:(reg_factory ()) c));
  List.iter
    (fun invoke_order ->
      let r' = search ~invoke_order () in
      check_bool
        (Printf.sprintf "~invoke_order:%b: same certificate" invoke_order)
        true
        (same_cert r.Live_explore.outcome r'.Live_explore.outcome);
      check_int
        (Printf.sprintf "~invoke_order:%b: same nodes" invoke_order)
        r.Live_explore.stats.Explore_stats.nodes
        r'.Live_explore.stats.Explore_stats.nodes)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Certificate mechanics.                                              *)

let test_cert_pumps_four_repetitions () =
  (* The certificate is its stem and cycle alone: the pump takes its
     reference from its own first repetition, and every later one
     repeats it — statuses and cells — however many are asked for. *)
  let c = lasso_exn "cert" (search_register ~depth:8 (Freedom.make ~l:1 ~k:2)) in
  let period = List.length c.Lasso.c_cycle in
  List.iter
    (fun repetitions ->
      match Lasso.pump ~factory:(reg_factory ()) ~repetitions c with
      | Error e ->
          Alcotest.failf "%d repetitions: %s" repetitions e.Lasso.reason
      | Ok r ->
          check_int
            (Printf.sprintf "%d repetitions: window is the pumped cycles"
               repetitions)
            (List.length c.Lasso.c_stem + (repetitions * period))
            r.Run_report.total_time)
    [ 2; 3; 4 ]

let test_pump_sees_last_process () =
  (* Processes 1-3 stay idle while process 4 runs one proposal solo,
     one step per repetition, and the second repetition completes it:
     only process 4's status differs from the first repetition's.  A
     comparison that stops short of the last process — as the
     polymorphic [Hashtbl.hash] of cells and statuses did at n = 4 —
     lets this through. *)
  let propose = Driver.Invoke (4, Slx_consensus.Consensus_type.Propose 3) in
  let solo_steps =
    Runner.Cursor.with_ ~n:4 ~factory:(reg_factory ()) ~prefix:[ propose ]
      (fun cur ->
        let rec go k =
          Runner.Cursor.apply cur (Driver.Schedule 4);
          if (Runner.Cursor.view cur).Driver.status 4 = Runtime.Idle then k
          else go (k + 1)
        in
        go 1)
  in
  check_bool "the proposal takes at least two steps" true (solo_steps >= 2);
  let cert =
    {
      Lasso.c_n = 4;
      c_stem =
        propose :: List.init (solo_steps - 2) (fun _ -> Driver.Schedule 4);
      c_cycle = [ Driver.Schedule 4 ];
    }
  in
  Alcotest.(check (result unit (pair string (option int))))
    "the diverging status is reported, at its repetition"
    (Error ("configuration diverged on repetition 2", Some 2))
    (failure (Lasso.pump ~factory:(reg_factory ()) cert))

let test_pump_rejects_wrong_instance () =
  (* A certificate recorded against the register consensus does not
     validate against a different implementation. *)
  let c = lasso_exn "cert" (search_register ~depth:8 (Freedom.make ~l:1 ~k:2)) in
  match
    Lasso.pump ~factory:(Slx_consensus.Cas_consensus.factory ()) c
  with
  | Ok _ -> Alcotest.fail "pump should reject a CAS replay"
  | Error _ -> ()

let test_pump_argument_errors () =
  let c = lasso_exn "cert" (search_register ~depth:8 (Freedom.make ~l:1 ~k:2)) in
  (match Lasso.pump ~factory:(reg_factory ()) ~repetitions:1 c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "repetitions < 2 must be rejected");
  (* The stem is replayed as a cursor prefix; an inapplicable stem
     decision is still an [Error], not an exception. *)
  (match
     Lasso.pump ~factory:(reg_factory ())
       { c with Lasso.c_stem = Driver.Schedule 1 :: c.Lasso.c_stem }
   with
  | Error f ->
      check_bool "inapplicable stem decision reported" true
        (String.starts_with ~prefix:"decision not applicable: " f.Lasso.reason);
      check_bool "at no repetition" true (f.Lasso.repetition = None)
  | Ok _ -> Alcotest.fail "a stem granting an idle process must not pump");
  Alcotest.(check (result unit (pair string (option int))))
    "empty cycle rejected" (Error ("Lasso.pump: empty cycle", None))
    (failure
       (Lasso.pump ~factory:(reg_factory ()) { c with Lasso.c_cycle = [] }))

(* A certificate drawn from a driven run under the workload [invoke]:
   [stem_picks] drive the stem, crashes included, and [cycle_picks] the
   cycle's first repetition, which grants or invokes only
   ({!pick_decision}).  [None] when the cycle found nothing to
   apply. *)
let driven_cert ~factory ~invoke n stem_picks cycle_picks =
  let cert =
    Runner.Cursor.with_ ~n ~factory (fun c ->
        let drive ~crash picks =
          List.filter_map
            (fun pick ->
              Option.map
                (fun d ->
                  Runner.Cursor.apply c d;
                  d)
                (pick_decision ~crash ~invoke c pick))
            picks
        in
        let c_stem = drive ~crash:true stem_picks in
        { Lasso.c_n = n; c_stem; c_cycle = drive ~crash:false cycle_picks })
  in
  if cert.Lasso.c_cycle = [] then None else Some cert

(* Runs of the register and CAS consensus, and of TL2 under the TM
   workload, whose next invocation depends on the process's own
   history, so its pumps can also fail with "workload diverged". *)
let gen_driven =
  QCheck2.Gen.(
    quad
      (oneofl [ "register"; "cas"; "tl2" ])
      (int_range 2 3)
      (list_size (int_range 0 10) (int_range 0 1_000))
      (list_size (int_range 1 3) (int_range 0 1_000)))

let print_driven (impl, n, stem, cycle) =
  let ints xs = String.concat ";" (List.map string_of_int xs) in
  Printf.sprintf "%s n=%d stem=[%s] cycle=[%s]" impl n (ints stem)
    (ints cycle)

(* A property of one driven certificate, for any implementation. *)
type driven_check = {
  check :
    'inv 'res.
    factory:(unit -> ('inv, 'res) Runner.factory) ->
    invoke:(('inv, 'res) Driver.view -> Slx_history.Proc.t -> 'inv option) ->
    ('inv, 'res) Lasso.cert ->
    bool;
}

let on_driven { check } (impl, n, stem, cycle) =
  let run ~factory ~invoke =
    match driven_cert ~factory:(factory ()) ~invoke n stem cycle with
    | None -> true
    | Some cert -> check ~factory ~invoke cert
  in
  match impl with
  | "tl2" ->
      run ~factory:Slx_tm.Tl2_tm.factory
        ~invoke:(fun v p -> Some (Slx_tm.Tm_workload.next_invocation v p))
  | "cas" -> run ~factory:Slx_consensus.Cas_consensus.factory ~invoke
  | _ -> run ~factory:(fun () -> reg_factory ~depth:12 ()) ~invoke

let driven_repetitions = 8

(* The inheritance lemma the live walk rejects pumps by (doc/model.md
   §7): a pump of [(S, C)] that fails at repetition [r >= 3] with a
   repetition-bound failure makes the pump of [(S·C^m, C)] fail at
   repetition [r - m], for every [1 <= m <= r - 2]. *)
let prop_pump_failure_carries =
  QCheck2.Test.make ~name:"a pump failure carries along its cycle" ~count:600
    ~print:print_driven gen_driven
    (on_driven
       {
         check =
           (fun ~factory ~invoke cert ->
             let pump c =
               Lasso.pump ~factory:(factory ())
                 ~repetitions:driven_repetitions ~invoke c
             in
             match pump cert with
             | Error { Lasso.repetition = Some r; _ } when r >= 3 ->
                 List.for_all
                   (fun m ->
                     let c_stem =
                       cert.Lasso.c_stem
                       @ List.concat
                           (List.init m (fun _ -> cert.Lasso.c_cycle))
                     in
                     match pump { cert with Lasso.c_stem } with
                     | Error { Lasso.repetition = Some r'; _ } -> r' = r - m
                     | _ -> false)
                   (List.init (r - 2) (fun i -> i + 1))
             | _ -> true);
       })

(* The split pump: {!Lasso.pump_from} on a cursor already at stem ·
   cycle returns what {!Lasso.pump} does from a fresh instance, report
   and failure alike. *)
let prop_pump_from_is_pump =
  QCheck2.Test.make ~name:"pump_from at stem · cycle = pump" ~count:300
    ~print:print_driven gen_driven
    (on_driven
       {
         check =
           (fun ~factory ~invoke cert ->
             let summary = function
               | Ok r ->
                   Ok
                     ( Lasso.tick_cells r,
                       Run_report.window_start r,
                       r.Run_report.total_time )
               | Error f -> Error f
             in
             let fresh =
               Lasso.pump ~factory:(factory ())
                 ~repetitions:driven_repetitions ~invoke cert
             in
             let from =
               Runner.Cursor.with_ ~n:cert.Lasso.c_n ~factory:(factory ())
                 ~prefix:(cert.Lasso.c_stem @ cert.Lasso.c_cycle) (fun c ->
                   Lasso.pump_from c ~repetitions:driven_repetitions ~invoke
                     cert)
             in
             summary fresh = summary from);
       })

(* Repetition [k] (from 0) of [cert]'s cycle in [cells], the
   {!Lasso.tick_cells} of a run that starts with [cert]'s stem. *)
let repetition_cells cert cells k =
  let period = List.length cert.Lasso.c_cycle in
  Array.sub cells (List.length cert.Lasso.c_stem + (k * period)) period

(* The pump compares statuses only (doc/model.md §7): a pump whose
   decisions all apply and whose repetitions all end in the first's
   statuses repeats the first repetition's cells, so its window is
   periodic. *)
let prop_accepted_pump_repeats_cells =
  QCheck2.Test.make ~name:"an accepted pump repeats its cells" ~count:1_000
    ~print:print_driven gen_driven
    (on_driven
       {
         check =
           (fun ~factory ~invoke cert ->
             match
               Lasso.pump ~factory:(factory ())
                 ~repetitions:driven_repetitions ~invoke cert
             with
             | Error _ -> true
             | Ok r ->
                 let cells = Array.of_list (Lasso.tick_cells r) in
                 let rep = repetition_cells cert cells in
                 List.for_all
                   (fun k -> rep k = rep 0)
                   (List.init driven_repetitions Fun.id)
                 && Option.is_some (Lasso.window_period r));
       })

(* The converse the carry bound rests on: a repetition that ends in
   other statuses than the one before it also records other cells
   than that one, so no candidate closes on it (doc/model.md §7). *)
let prop_diverged_repetition_changes_cells =
  QCheck2.Test.make ~name:"a diverged repetition changes its cells"
    ~count:600 ~print:print_driven gen_driven
    (on_driven
       {
         check =
           (fun ~factory ~invoke cert ->
             match
               Lasso.pump ~factory:(factory ())
                 ~repetitions:driven_repetitions ~invoke cert
             with
             | Error { Lasso.reason; repetition = Some r }
               when String.starts_with ~prefix:"configuration diverged" reason
               ->
                 let cycles = List.init r (fun _ -> cert.Lasso.c_cycle) in
                 let cells =
                   Runner.Cursor.with_ ~n:cert.Lasso.c_n ~factory:(factory ())
                     ~prefix:(cert.Lasso.c_stem @ List.concat cycles)
                     (fun c ->
                       Array.of_list
                         (Lasso.tick_cells (Runner.Cursor.report c ())))
                 in
                 let rep = repetition_cells cert cells in
                 rep (r - 1) <> rep (r - 2)
             | _ -> true);
       })

(* The leaf rule's premise ({!Lasso.may_close}): where it says a
   decision's tick closes no candidate, no code whose low slot is the
   decision's first element makes any period [p <= max_period] close
   — checked against the search's own periodicity test on the codes
   with that code prepended.  Codes come from a small alphabet, so
   periods are common. *)
let prop_may_close_is_sound =
  let element d =
    let open Slx_history in
    let first =
      match d with
      | Driver.Schedule _ -> []
      | Driver.Invoke (p, inv) -> [ Event.Invocation (p, inv) ]
      | Driver.Crash p -> [ Event.Crash p ]
      | Driver.Stop -> []
    in
    Lasso.cell_code d first land 0xff
  in
  let closes ~max_period codes =
    let len = List.length codes in
    let codes = Array.of_list codes in
    List.exists
      (fun p ->
        2 * p <= len
        && List.for_all
             (fun i -> codes.(i) = codes.(i + p))
             (List.init p Fun.id))
      (List.init max_period (fun i -> i + 1))
  in
  QCheck2.Test.make ~name:"may_close = false closes no period" ~count:2_000
    ~print:(fun (max_period, (kind, q), codes, extra) ->
      Printf.sprintf "max_period=%d kind=%d q=%d codes=[%s] extra=%d"
        max_period kind q
        (String.concat ";" (List.map string_of_int codes))
        extra)
    QCheck2.Gen.(
      quad (int_range 1 6)
        (pair (int_range 0 2) (int_range 1 2))
        (list_size (int_range 0 12) (int_range 0 7))
        (int_range 0 3))
    (fun (max_period, (kind, q), small, extra) ->
      let d =
        match kind with
        | 0 -> Driver.Schedule q
        | 1 -> Driver.Invoke (q, Slx_consensus.Consensus_type.Propose 0)
        | _ -> Driver.Crash q
      in
      (* Small ints stand for cells whose first elements are grants
         and invocations of processes 1 and 2, so codes share low
         slots with the decisions. *)
      let code i =
        element
          (if i mod 4 < 2 then Driver.Schedule ((i mod 2) + 1)
           else
             Driver.Invoke
               ((i mod 2) + 1, Slx_consensus.Consensus_type.Propose 0))
        lor ((i / 4) lsl 8)
      in
      let codes = List.map code small in
      let low = element d in
      (* Candidate new codes: the decision's element alone, under every
         upper slot seen in [codes], and under [extra]. *)
      let news =
        low lor (extra lsl 8)
        :: List.map (fun c -> low lor (c land lnot 0xff)) codes
      in
      Lasso.may_close ~max_period d codes
      || List.for_all
           (fun c -> not (closes ~max_period (c :: codes)))
           news)

(* Every pump verdict of a walk — a fresh pump, a leaf's pump on its
   own cursor, or a rejection inherited from an ancestor's failed pump
   — is what a fresh pump of the same candidate says
   ({!Live_explore.validate_cert_codes}, the search's acceptance test
   run from scratch).  Each candidate is read off the walk's trace: the
   [Decision] codes on the path to the node whose pump span it is,
   split [p] from the end.  The queries are register and CAS ones where
   all three kinds of verdict occur. *)
let test_pump_verdicts_match_fresh_pumps () =
  let open Slx_obs in
  List.iter
    (fun (impl, property, n, crashes, depth, dpor) ->
      let sp =
        Result.get_ok
          (Slx_serve.Queries.make ~kind:`Live ~impl ~property ~n ~depth
             ~crashes ~max_period:None ~pump:None ~dpor)
      in
      let obs = Obs.create ~tracing:true ~ring_capacity:(1 lsl 20) () in
      let r =
        match Slx_serve.Queries.run ~obs sp with
        | Slx_serve.Queries.Live r, _ -> r
        | Slx_serve.Queries.Safety _, _ -> Alcotest.fail "not a live query"
      in
      let name = Slx_serve.Queries.spec_to_json sp in
      check_int (name ^ ": no event dropped") 0 (Obs.events_dropped obs);
      let path = Array.make (depth + 1) 0 in
      let lens = ref [] and candidate = ref ([], []) and pumps = ref 0 in
      List.iter
        (fun e ->
          match e.Telemetry.ev_kind with
          | Telemetry.Decision ->
              path.(e.Telemetry.ev_a - 1) <- e.Telemetry.ev_b
          | Telemetry.Node_enter -> lens := e.Telemetry.ev_a :: !lens
          | Telemetry.Node_leave -> lens := List.tl !lens
          | Telemetry.Pump_start ->
              let len = List.hd !lens and p = e.Telemetry.ev_a in
              let codes = Array.to_list (Array.sub path 0 len) in
              candidate :=
                (List.filteri (fun i _ -> i < len - p) codes,
                 List.filteri (fun i _ -> i >= len - p) codes)
          | Telemetry.Pump_verdict ->
              incr pumps;
              let stem, cycle = !candidate in
              let fresh =
                Live_explore.validate_cert_codes ~n
                  ~factory:(Slx_serve.Queries.factory sp)
                  ~invoke ~good ~point:(Slx_serve.Queries.point sp)
                  ~pump_ticks:sp.Slx_serve.Queries.sp_pump ~stem ~cycle ()
              in
              check_bool
                (Printf.sprintf "%s: pump %d's verdict" name !pumps)
                (Option.is_some fresh) (e.Telemetry.ev_b = 1)
          | _ -> ())
        (Obs.events obs);
      check_int (name ^ ": one pump span per fair violating candidate")
        r.Live_explore.stats.Explore_stats.fair_cycles !pumps)
    [
      ("register", "obstruction", 2, 1, 12, true);
      ("register", "obstruction", 2, 1, 10, false);
      ("register", "1,2", 2, 1, 13, false);
      ("register", "obstruction", 3, 2, 8, true);
      ("cas", "obstruction", 2, 1, 10, true);
    ]

let prop_lasso_pumps =
  (* The QCheck satellite: over small depth/point/pump-length choices,
     the emitted certificate pumps — every repetition reproduces the
     first one's cells and statuses — and the pumped window
     still carries the bounded violation. *)
  QCheck2.Test.make ~name:"emitted lasso certificates pump" ~count:12
    QCheck2.Gen.(
      triple (int_range 8 9) (oneofl [ (1, 2); (2, 2) ]) (int_range 2 6))
    (fun (depth, (l, k), repetitions) ->
      let point = Freedom.make ~l ~k in
      match (search_register ~depth point).Live_explore.outcome with
      | Live_explore.No_fair_cycle -> false
      | Live_explore.Lasso c -> (
          match
            Lasso.pump ~factory:(reg_factory ~depth ()) ~repetitions c
          with
          | Error _ -> false
          | Ok rep -> Lasso.certified_violation ~good rep point))

(* ------------------------------------------------------------------ *)
(* Cross-validation: exhaustive search vs adversary games.             *)

let test_exhaustive_grid_matches_games () =
  let exhaustive = Slx_serve.Queries.consensus_exhaustive ~n:2 ~depth:10 () in
  let games = Figure1.consensus ~n:2 ~max_steps:1200 () in
  List.iter
    (fun (point, color) ->
      let l = Freedom.l point and k = Freedom.k point in
      match Figure1.color_at games ~l ~k with
      | None -> Alcotest.failf "game grid misses (%d,%d)" l k
      | Some game_color ->
          check_bool
            (Printf.sprintf "grids agree at (%d,%d)" l k)
            true
            (color = game_color))
    exhaustive.Figure1.cells;
  (* And the shape is Theorem 5.2's: white exactly at (1,1). *)
  check_bool "white at (1,1)" true
    (Figure1.color_at exhaustive ~l:1 ~k:1 = Some Figure1.Not_excluded);
  check_bool "black at (1,2)" true
    (Figure1.color_at exhaustive ~l:1 ~k:2 = Some Figure1.Excluded);
  check_bool "black at (2,2)" true
    (Figure1.color_at exhaustive ~l:2 ~k:2 = Some Figure1.Excluded)

let test_certify_run_i12_local_progress () =
  (* The I12 leg of E20: the Section 4.1 adversary's sampled win is
     promoted to a pumpable lasso certificate by the same candidate
     detection the exhaustive search uses. *)
  let open Slx_tm in
  let r =
    Live_explore.certify_run ~n:2
      ~factory:(fun () -> I12.factory ~vars:1)
      ~driver:(Tm_adversary.local_progress_adversary ())
      ~good:Tm_type.good
      ~point:(Freedom.wait_freedom ~n:2)
      ~max_steps:400 ()
  in
  match r.Live_explore.outcome with
  | Live_explore.No_fair_cycle ->
      Alcotest.fail "local-progress adversary run should certify"
  | Live_explore.Lasso c ->
      check_bool "non-trivial period" true (List.length c.Lasso.c_cycle >= 2);
      check_bool "certificate re-pumps" true
        (match
           Lasso.pump ~factory:(I12.factory ~vars:1) ~repetitions:3 c
         with
        | Ok _ -> true
        | Error _ -> false)

(* The certificate the search returned for I12 at (1,2), depth 22,
   period bound 8, DPOR on, while pumps still replayed the recorded
   payloads.  Its cycle re-issues each process's recorded [start],
   which the TM workload issues only after a commit or an abort — not
   where the cycle comes back round — so it is no run of the declared
   system, and Lemma 5.4 rules a lasso out anyway. *)
let test_pump_replays_the_workload () =
  let open Slx_tm in
  let factory () = I12.factory ~vars:1 in
  let invoke v p = Some (Tm_workload.next_invocation v p) in
  let stem = [ 5; 4; 4; 5; 5; 9; 8; 8; 9; 9; 5; 4; 4; 9; 8; 8 ]
  and cycle = [ 5; 4; 4; 9; 8; 8 ] in
  check_bool "the stored witness does not re-validate" true
    (Live_explore.validate_cert_codes ~n:2 ~factory ~invoke ~good:Tm_type.good
       ~point:(Freedom.make ~l:1 ~k:2) ~pump_ticks:88 ~stem ~cycle ()
    = None);
  let cert =
    Runner.Cursor.with_ ~n:2 ~factory:(factory ()) (fun cursor ->
        let apply = Explore.apply_codes ~invoke cursor in
        let c_stem = apply stem in
        { Lasso.c_n = 2; c_stem; c_cycle = apply cycle })
  in
  check_bool "the recorded payloads pump" true
    (Result.is_ok (Lasso.pump ~factory:(factory ()) ~repetitions:4 cert));
  Alcotest.(check (result unit (pair string (option int))))
    "the workload does not, from its second repetition"
    (Error ("workload diverged", Some 2))
    (failure (Lasso.pump ~factory:(factory ()) ~repetitions:4 ~invoke cert))

(* The other side of the workload check: a lasso the search finds is a
   run of the declared workload.  TL2 with a crashed lock holder starves
   the survivor, whose cycle re-issues [start] and [read] after each
   abort, so the check compares real invocations; the certificate pumps
   under [~invoke] and its codes re-validate to the same certificate. *)
let test_genuine_lasso_passes_the_workload_check () =
  let open Slx_tm in
  let factory () = Tl2_tm.factory () in
  let invoke v p = Some (Tm_workload.next_invocation v p) in
  let good = Tm_type.good and point = Freedom.obstruction_freedom in
  let c =
    lasso_exn "TL2 (1,1)"
      (Live_explore.search ~n:2 ~factory ~invoke ~good ~point ~depth:20
         ~max_crashes:1 ~dpor:true ())
  in
  check_bool "the cycle re-issues invocations" true
    (List.exists
       (function Driver.Invoke _ -> true | _ -> false)
       c.Lasso.c_cycle);
  (match Lasso.pump ~factory:(factory ()) ~repetitions:4 ~invoke c with
  | Error e -> Alcotest.failf "workload pump failed: %s" e.Lasso.reason
  | Ok rep ->
      check_bool "pumped report carries the bounded violation" true
        (Lasso.certified_violation ~good rep point));
  let stem = Explore.codes_of_script c.Lasso.c_stem
  and cycle = Explore.codes_of_script c.Lasso.c_cycle in
  match
    Live_explore.validate_cert_codes ~n:2 ~factory ~invoke ~good ~point
      ~pump_ticks:80 ~stem ~cycle ()
  with
  | None -> Alcotest.fail "the search's own witness does not re-validate"
  | Some c' ->
      Alcotest.(check (list int))
        "same stem" stem
        (Explore.codes_of_script c'.Lasso.c_stem);
      Alcotest.(check (list int))
        "same cycle" cycle
        (Explore.codes_of_script c'.Lasso.c_cycle)

(* ------------------------------------------------------------------ *)
(* Cancellation.                                                       *)

(* A [cancel] that fires on its [k]-th poll.  Both explorers poll once
   per node, right after counting it, so the partial stats count
   exactly [k] nodes; the trace's node spans stay balanced. *)
let cancel_on k =
  let polls = ref 0 in
  fun () ->
    incr polls;
    !polls >= k

let check_interrupted name k obs run =
  match run (cancel_on k) with
  | exception Explore.Interrupted st ->
      check_int (name ^ ": nodes at the k-th poll") k st.Explore_stats.nodes;
      let count kind =
        List.length
          (List.filter
             (fun e -> e.Slx_obs.Telemetry.ev_kind = kind)
             (Slx_obs.Obs.events obs))
      in
      check_int (name ^ ": node spans balanced")
        (count Slx_obs.Telemetry.Node_enter)
        (count Slx_obs.Telemetry.Node_leave);
      check_int (name ^ ": one span per node") k
        (count Slx_obs.Telemetry.Node_enter)
  | _ -> Alcotest.failf "%s: the walk was not interrupted" name

let test_cancel_interrupts_both_explorers () =
  List.iter
    (fun k ->
      let obs = Slx_obs.Obs.create ~tracing:true () in
      check_interrupted "explore" k obs (fun cancel ->
          Explore.explore ~n:2
            ~factory:(fun () -> reg_factory ())
            ~invoke ~depth:10
            ~max_crashes:1 ~dpor:true ~symmetry:true ~obs ~cancel
            ~check:(fun _ -> true)
            ());
      let obs = Slx_obs.Obs.create ~tracing:true () in
      check_interrupted "live" k obs (fun cancel ->
          Live_explore.search ~n:2
            ~factory:(fun () -> reg_factory ())
            ~invoke ~good
            ~point:(Freedom.make ~l:1 ~k:1) ~depth:10 ~max_crashes:1
            ~max_period:2 ~dpor:true ~obs ~cancel ()))
    [ 1; 7; 50 ]

(* ------------------------------------------------------------------ *)
(* JSON surfaces.                                                      *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_grid_json () =
  let grid = Slx_serve.Queries.consensus_exhaustive ~n:2 ~depth:8 () in
  let j = Figure1.to_json grid in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "grid JSON contains %s" needle) true
        (contains j needle))
    [
      "\"n\": 2";
      "\"cells\": [";
      "{\"l\": 1, \"k\": 1, \"color\": \"not_excluded\"}";
      "{\"l\": 1, \"k\": 2, \"color\": \"excluded\"}";
    ]

let test_stats_json_has_cycle_counters () =
  let r = search_register ~depth:8 (Freedom.make ~l:1 ~k:2) in
  let j = Explore_stats.to_json r.Live_explore.stats in
  check_bool "cycles_examined serialized" true (contains j "\"cycles_examined\"");
  check_bool "fair_cycles serialized" true (contains j "\"fair_cycles\"")

let suites =
  [
    ( "live-explore: fair-cycle search",
      [
        quick "register: (1,2) lasso at depth 8" test_register_lasso_for_1_2;
        quick "register: no (1,1) lasso under solo windows"
          test_register_no_lasso_for_1_1;
        quick "register: (2,2) lasso" test_register_lasso_for_2_2;
        quick "CAS: no lasso anywhere" test_cas_no_lasso_anywhere;
        quick "witness deterministic across configs"
          test_witness_deterministic_across_configs;
        quick "invoke order is unconditional"
          test_invoke_order_is_unconditional;
      ]
      @ qcheck [ prop_cell_codes_match_tick_cells ] );
    ( "live-explore: suffix cache",
      [
        quick "hits keep outcome, certificate and runs"
          test_cache_hits_keep_results;
        quick "default max_period builds no cache"
          test_default_period_builds_no_cache;
      ]
      @ qcheck [ prop_cache_transparent ] );
    ( "live-explore: certificates",
      [
        quick "register (1,2) certificate pumps for 4 repetitions"
          test_cert_pumps_four_repetitions;
        quick "pump sees the last process's status" test_pump_sees_last_process;
        quick "pump rejects the wrong instance" test_pump_rejects_wrong_instance;
        quick "pump argument errors" test_pump_argument_errors;
        quick "every pump verdict is a fresh pump's"
          test_pump_verdicts_match_fresh_pumps;
      ]
      @ qcheck
          [
            prop_lasso_pumps;
            prop_pump_failure_carries;
            prop_pump_from_is_pump;
            prop_accepted_pump_repeats_cells;
            prop_diverged_repetition_changes_cells;
            prop_may_close_is_sound;
          ] );
    ( "live-explore: cross-validation (E20)",
      [
        quick "exhaustive grid matches adversary games"
          test_exhaustive_grid_matches_games;
        quick "I12 local-progress run certifies"
          test_certify_run_i12_local_progress;
        quick "grid JSON" test_grid_json;
        quick "stats JSON cycle counters" test_stats_json_has_cycle_counters;
      ] );
    ( "live-explore: workload pumps",
      [
        quick "a pump replays the workload, not recorded payloads"
          test_pump_replays_the_workload;
        quick "a genuine lasso passes the workload check"
          test_genuine_lasso_passes_the_workload_check;
      ] );
    ( "explorers: cancellation",
      [
        quick "cancel interrupts both explorers at the k-th node"
          test_cancel_interrupts_both_explorers;
      ] );
  ]
