(* The compact encodings' own suite: the flat cache keys and the
   conflict bitmasks must be invisible — every verdict, witness
   script and lasso certificate identical with the transposition cache
   on or off.

   Layers:
   - QCheck: the cache finds an entry exactly under equal key arrays,
     and the bitmask footprints answer commutation and list their
     accesses as the raw access lists they were built from say, spill
     range included;
   - differential sweeps over every case of test/cases.ml, safety and
     liveness legs, cache on vs off (mirroring test/test_dpor.ml's
     dpor-on-vs-off sweeps), the liveness leg at a period bound where
     the suffix cache engages;
   - equal keys are equal configurations (history, shared state,
     statuses) at every node of naive walks over every case and of a
     live walk's tree keyed with its trace-suffix tail;
   - the retired switches ([~compact:false], declared-footprint
     [~por:true ~dpor:false]) raise;
   - the incremental shared-state digest always agrees with the
     from-scratch recomputation, also after a step that writes two
     cells. *)

open Slx_history
open Slx_sim
open Slx_core
open Slx_liveness
open Support

let show_script pp_inv ds =
  String.concat ";"
    (List.map
       (function
         | Driver.Schedule p -> Printf.sprintf "S%d" p
         | Driver.Invoke (p, i) -> Printf.sprintf "I%d(%s)" p (pp_inv i)
         | Driver.Crash p -> Printf.sprintf "C%d" p
         | Driver.Stop -> "stop")
       ds)

(* ------------------------------------------------------------------ *)
(* QCheck: the key table.                                              *)

(* The transposition cache is keyed by the flat key arrays themselves:
   equal arrays reach the same entry and distinct arrays distinct ones,
   including arrays that agree on their first ten elements and differ
   only past them, where the polymorphic hash stops looking. *)
let qcheck_cache_key_equality =
  QCheck2.Test.make ~count:500
    ~name:"Key_table: same entry iff equal key arrays"
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (map2
           (fun long tail ->
             Array.of_list ((if long then List.init 10 Fun.id else []) @ tail))
           bool
           (list_size (int_range 0 8) (int_range (-3) 3))))
    (fun arrays ->
      let table = Key_table.create 16 in
      List.iteri
        (fun i a ->
          if Key_table.find_opt table a = None then Key_table.replace table a i)
        arrays;
      let entry a = Key_table.find_opt table (Array.copy a) in
      List.for_all
        (fun a -> List.for_all (fun b -> entry a = entry b = (a = b)) arrays)
        arrays)

(* ------------------------------------------------------------------ *)
(* QCheck: the bitmask footprints against their raw access lists.      *)
(* Object ids range over the 0..61 direct-bit window, past it and      *)
(* below zero, so both spill ranges are exercised too.                 *)

let accesses_gen =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (map
         (fun (o, w) -> { Runtime.obj = o; write = w })
         (pair
            (oneof [ int_range 0 5; int_range 58 70; int_range (-4) (-1) ])
            bool)))

let qcheck_commute_iff_no_raw_conflict =
  QCheck2.Test.make ~count:1000
    ~name:"commute holds iff no raw pair of accesses hits one object with a write"
    QCheck2.Gen.(pair accesses_gen accesses_gen)
    (fun (raw_a, raw_b) ->
      Runtime.commute (Runtime.of_accesses raw_a) (Runtime.of_accesses raw_b)
      = not
          (List.exists
             (fun a -> List.exists (Dpor.observed_conflict a) raw_b)
             raw_a))

let qcheck_accesses_canonical =
  QCheck2.Test.make ~count:1000
    ~name:"accesses (of_accesses l) is l merged per object and sorted by id"
    accesses_gen
    (fun raw ->
      let merged =
        List.sort_uniq compare (List.map (fun a -> a.Runtime.obj) raw)
        |> List.map (fun obj ->
               {
                 Runtime.obj;
                 write =
                   List.exists
                     (fun a -> a.Runtime.obj = obj && a.Runtime.write)
                     raw;
               })
      in
      Runtime.accesses (Runtime.of_accesses raw) = Some merged)

(* ------------------------------------------------------------------ *)
(* Safety leg: Explore with the transposition cache on vs off, over    *)
(* every case of test/cases.ml — identical runs, history digests and      *)
(* lex-least witness scripts.                                          *)

let diff_explore_case (Cases.Case c) =
  let depth = min c.Cases.c_depth 5 in
  let max_crashes = min c.Cases.c_max_crashes 1 in
  let run ~cache ~check =
    Explore.explore ~n:c.Cases.c_n ~factory:c.Cases.c_factory
      ~invoke:c.Cases.c_invoke ~depth ~max_crashes ~dpor:true ~cache ~check ()
  in
  let stats e = e.Explore.stats in
  let off = run ~cache:false ~check:(fun _ -> true) in
  let on = run ~cache:true ~check:(fun _ -> true) in
  (match (off.Explore.outcome, on.Explore.outcome) with
  | Explore.Ok a, Explore.Ok b ->
      check_int (c.Cases.c_name ^ ": identical runs") a b
  | _ ->
      Alcotest.failf "%s: always-true check produced a counterexample"
        c.Cases.c_name);
  check_bool
    (c.Cases.c_name ^ ": identical history digest")
    true
    ((stats off).Explore_stats.history_digest
    = (stats on).Explore_stats.history_digest);
  let offx = run ~cache:false ~check:(fun _ -> false) in
  let onx = run ~cache:true ~check:(fun _ -> false) in
  match (offx.Explore.witness_script, onx.Explore.witness_script) with
  | Some a, Some b ->
      Alcotest.(check string)
        (c.Cases.c_name ^ ": identical lex-least counterexample script")
        (show_script c.Cases.c_pp_inv a)
        (show_script c.Cases.c_pp_inv b)
  | _ ->
      Alcotest.failf "%s: always-false check produced no counterexample"
        c.Cases.c_name

let test_explore_differential () =
  List.iter diff_explore_case (Cases.all ())

(* ------------------------------------------------------------------ *)
(* Liveness leg: Live_explore with the suffix cache on vs off.  The    *)
(* cache keys only nodes deeper than [2 * max_period], so the leg      *)
(* runs at [max_period] 1, where every registry depth has such nodes.  *)

let same_lasso ~name pp_inv (on : _ Live_explore.result)
    (off : _ Live_explore.result) =
  match (on.Live_explore.outcome, off.Live_explore.outcome) with
  | Live_explore.No_fair_cycle, Live_explore.No_fair_cycle -> ()
  | Live_explore.Lasso a, Live_explore.Lasso b ->
      Alcotest.(check string)
        (name ^ ": identical lasso stem")
        (show_script pp_inv a.Lasso.c_stem)
        (show_script pp_inv b.Lasso.c_stem);
      Alcotest.(check string)
        (name ^ ": identical lasso cycle")
        (show_script pp_inv a.Lasso.c_cycle)
        (show_script pp_inv b.Lasso.c_cycle)
  | Live_explore.Lasso _, Live_explore.No_fair_cycle ->
      Alcotest.failf "%s: the cache invented a lasso" name
  | Live_explore.No_fair_cycle, Live_explore.Lasso _ ->
      Alcotest.failf "%s: the cache missed the lasso" name

let cache_entries (r : _ Live_explore.result) =
  r.Live_explore.stats.Explore_stats.cache_entries

(* Every keyed node of a lasso-free search completes and writes its
   entry, so such a search holds entries unless no node is deeper than
   [2 * max_period]: selfish consensus decides inside the invocation,
   so with one proposal per process its every run ends at length 2.  A search that finds its lasso on
   the first path may complete no keyed node either, so the sweep also
   checks that its total is positive. *)
let shallow_cases = [ "consensus-selfish" ]

let diff_live_case (Cases.Case c) =
  let depth = min c.Cases.c_depth 7 in
  let run ~cache =
    Live_explore.search ~n:c.Cases.c_n ~factory:c.Cases.c_factory
      ~invoke:c.Cases.c_invoke
      ~good:(fun _ -> false)
      ~point:(Freedom.make ~l:1 ~k:1) ~depth ~max_period:1 ~dpor:true ~cache
      ()
  in
  let on = run ~cache:true in
  if
    on.Live_explore.outcome = Live_explore.No_fair_cycle
    && not (List.mem c.Cases.c_name shallow_cases)
  then
    check_bool (c.Cases.c_name ^ ": the suffix cache holds entries") true
      (cache_entries on > 0);
  same_lasso ~name:c.Cases.c_name c.Cases.c_pp_inv on (run ~cache:false);
  cache_entries on

let test_live_differential () =
  let total =
    List.fold_left (fun acc case -> acc + diff_live_case case) 0
      (Cases.all ())
  in
  check_bool "the sweep's suffix caches hold entries" true (total > 0)

(* The positive half: Theorem 5.2's own (1,2) lasso at depth 8 must be
   identical with the suffix cache on or off, under the dpor reduction
   whose key carries the sleepers' process ids. *)

let pp_consensus_inv (Slx_consensus.Consensus_type.Propose v) =
  "propose " ^ string_of_int v

let test_register_cert_identity () =
  let run ~cache =
    Live_explore.search ~n:2
      ~factory:(fun () ->
        Slx_consensus.Register_consensus.factory ~max_rounds:8 ())
      ~invoke:Slx_serve.Queries.live_invoke
      ~good:Slx_consensus.Consensus_type.good
      ~point:(Freedom.make ~l:1 ~k:2) ~depth:8 ~max_period:2 ~dpor:true ~cache
      ()
  in
  let on = run ~cache:true and off = run ~cache:false in
  (match on.Live_explore.outcome with
  | Live_explore.Lasso _ -> ()
  | Live_explore.No_fair_cycle ->
      Alcotest.fail "register (1,2): expected a lasso");
  check_bool "register (1,2): the suffix cache holds entries" true
    (cache_entries on > 0);
  same_lasso ~name:"register (1,2)" pp_consensus_inv on off

(* ------------------------------------------------------------------ *)
(* What the key must guarantee.  The key's history slot is a running   *)
(* digest of the history, so equal keys must still mean equal          *)
(* configurations: two nodes with equal [compact_key]s have equal       *)
(* histories, equal shared states recomputed from scratch and equal     *)
(* process statuses.                                                    *)

(* Walk the tree [menu] spans (it offers nothing at the depth bound),
   every node replaying its parent's prefix into a fresh keyed cursor
   and applying its own decision, and note each node's key, with the
   tail [tail len rev_codes] gives ([None]: not keyed), against what it
   stands for; a crash child is noted once more from its parent's
   snapshot.
   [rev_codes] are the nodes' trace cells ({!Lasso.cell_code}), latest
   first.  Returns the keys noted, those already noted, and those
   already noted for another configuration. *)
let key_walk ~n ~factory ~menu ~tail =
  let seen = Hashtbl.create 4096 in
  let keys = ref 0 and repeats = ref 0 and clashes = ref 0 in
  let note key config =
    incr keys;
    match Hashtbl.find_opt seen key with
    | None -> Hashtbl.add seen key config
    | Some c ->
        incr repeats;
        if c <> config then incr clashes
  in
  let config (v : _ Driver.view) full =
    (v.Driver.history, full, List.map v.Driver.status (Proc.all ~n))
  in
  let rec visit prefix last rev_codes len crashes =
    let rev_codes, decisions =
      Runner.Cursor.with_ ~n ~factory:(factory ()) ~prefix (fun c ->
          let rev_codes =
            match last with
            | None -> rev_codes
            | Some d ->
                let history () = (Runner.Cursor.view c).Driver.history in
                let before = History.length (history ()) in
                Runner.Cursor.apply c d;
                let h = history () in
                Lasso.cell_code d (History.latest h (History.length h - before))
                :: rev_codes
          in
          let view = Runner.Cursor.view c in
          let full = Runner.Cursor.shared_digest_full c in
          Option.iter
            (fun extra ->
              note (Runner.Cursor.compact_key c ~extra) (config view full))
            (tail len rev_codes);
          let decisions = menu view ~last len crashes in
          List.iter
            (function
              | Driver.Crash q as d ->
                  Option.iter
                    (fun extra ->
                      note
                        (Runner.Cursor.crash_key (Runner.Cursor.crash c q)
                           ~extra)
                        (config (Runner.Cursor.crash_view c q) full))
                    (tail (len + 1)
                       (Lasso.cell_code d [ Event.Crash q ] :: rev_codes))
              | _ -> ())
            decisions;
          (rev_codes, decisions))
    in
    let prefix = prefix @ Option.to_list last in
    List.iter
      (fun d ->
        visit prefix (Some d) rev_codes (len + 1)
          (Search.crashes_after crashes d))
      decisions
  in
  visit [] None [] 0 0;
  (!keys, !repeats, !clashes)

(* Naive walks over every case, at depth at most 6 and at most one
   crash, keyed as {!Explore.explore} keys (no tail). *)
let test_equal_keys_naive () =
  let repeats =
    List.fold_left
      (fun acc (Cases.Case c) ->
        let depth = min c.Cases.c_depth 6 in
        let max_crashes = min c.Cases.c_max_crashes 1 in
        let keys, repeats, clashes =
          key_walk ~n:c.Cases.c_n ~factory:c.Cases.c_factory
            ~menu:(fun view ~last:_ len crashes ->
              Search.full_menu ~invoke:c.Cases.c_invoke ~depth ~max_crashes
                view len crashes)
            ~tail:(fun _ _ -> Some [])
        in
        check_int (c.Cases.c_name ^ ": equal keys, equal configurations") 0
          clashes;
        check_bool (c.Cases.c_name ^ ": keys were noted") true (keys > 0);
        acc + repeats)
      0 (Cases.all ())
  in
  check_bool "some key recurs" true (repeats > 0)

(* The live walk's tree (its canonical, invoke-ordered menu) for
   register consensus, n = 2, one crash, depth 9, keyed as
   {!Live_explore.search} keys at [--max-period 2]: every node deeper
   than [2 * max_period], with the trace-suffix tail. *)
let test_equal_keys_live () =
  let max_period = 2 and depth = 9 in
  let rec take k = function
    | x :: xs when k > 0 -> x :: take (k - 1) xs
    | _ -> []
  in
  let canonical =
    Search.menu ~invoke:Slx_serve.Queries.live_invoke ~depth ~max_crashes:1
      ~symmetry:false ~invoke_order:true
  in
  let keys, repeats, clashes =
    key_walk ~n:2
      ~factory:(fun () ->
        Slx_consensus.Register_consensus.factory ~max_rounds:8 ())
      ~menu:(fun view ~last len crashes ->
        fst (canonical view ~last len crashes))
      ~tail:(fun len rev_codes ->
        if len <= 2 * max_period then None
        else
          let codes = take (2 * max_period) rev_codes in
          Some (List.length codes :: codes))
  in
  check_int "live walk: equal keys, equal configurations" 0 clashes;
  check_bool "live walk: keys were noted" true (keys > 0);
  check_bool "live walk: some key recurs" true (repeats > 0)

(* ------------------------------------------------------------------ *)
(* The retired switches: one key representation, one sleep-set oracle. *)

let test_retired_switches_raise () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must raise Invalid_argument" name
  in
  let factory () = Slx_consensus.Register_consensus.factory () in
  let invoke = Slx_serve.Queries.safety_invoke in
  let explore ?por ?dpor ?compact () =
    ignore
      (Explore.explore ~n:2 ~factory ~invoke ~depth:4 ?por ?dpor ?compact
         ~check:(fun _ -> true)
         ())
  in
  raises "Explore.explore ~compact:false" (explore ~compact:false);
  raises "Explore.explore ~por:true" (explore ~por:true);
  raises "Explore.explore ~por:true ~dpor:false" (explore ~por:true ~dpor:false);
  raises "Live_explore.search ~compact:false" (fun () ->
      ignore
        (Live_explore.search ~n:2 ~factory ~invoke:Slx_serve.Queries.live_invoke
           ~good:Slx_consensus.Consensus_type.good
           ~point:(Freedom.make ~l:1 ~k:1) ~depth:4 ~compact:false ()));
  (* The values the frozen callers still pass are accepted. *)
  explore ~por:true ~dpor:true ~compact:true ();
  explore ~por:false ~compact:true ()

(* ------------------------------------------------------------------ *)
(* The incremental shared-state digest agrees with the from-scratch    *)
(* recomputation after every decision — for an implementation and for  *)
(* a step that writes two cells.                                       *)

let test_incremental_digest_matches_full () =
  Runner.Cursor.with_ ~n:2
    ~factory:(Slx_consensus.Register_consensus.factory ())
    (fun c ->
      let check_step i d =
        Runner.Cursor.apply c d;
        check_bool
          (Printf.sprintf
             "register consensus: digests agree after decision %d" i)
          true
          (Runner.Cursor.shared_digest c = Runner.Cursor.shared_digest_full c)
      in
      List.iteri check_step
        [
          Driver.Invoke (1, Slx_consensus.Consensus_type.Propose 0);
          Driver.Schedule 1;
          Driver.Invoke (2, Slx_consensus.Consensus_type.Propose 1);
          Driver.Schedule 2;
          Driver.Schedule 1;
          Driver.Schedule 2;
          Driver.Schedule 1;
        ])

(* One atomic step writing two registered cells: the step's second
   write-touch still reaches its own cell's digest contribution. *)
let two_cell_factory ~n:_ =
  let cell () =
    let r = ref 0 in
    (r, Runtime.register_object (fun () -> Runtime.hash_value !r))
  in
  let a = cell () and b = cell () in
  let store (r, obj) v =
    Runtime.touch ~obj ~write:true;
    r := v
  in
  fun ~proc:_ v ->
    Runtime.atomic (fun () ->
        store a v;
        store b v);
    v

let test_incremental_digest_matches_full_on_two_writes () =
  Runner.Cursor.with_ ~n:2 ~factory:two_cell_factory (fun c ->
      let check_step i d =
        Runner.Cursor.apply c d;
        check_bool
          (Printf.sprintf "two-cell step: digests agree after decision %d" i)
          true
          (Runner.Cursor.shared_digest c = Runner.Cursor.shared_digest_full c)
      in
      List.iteri check_step
        [
          Driver.Invoke (1, 7);
          Driver.Schedule 1;
          Driver.Invoke (2, 8);
          Driver.Schedule 2;
        ])

let suites =
  [
    ( "compact",
      [
        quick "explore differential over every case"
          test_explore_differential;
        quick "live-explore differential over every case"
          test_live_differential;
        quick "register (1,2) certificate is identical with the cache on or off"
          test_register_cert_identity;
        quick "equal keys are equal configurations on naive walks"
          test_equal_keys_naive;
        quick "equal keys are equal configurations on a live walk"
          test_equal_keys_live;
        quick "the retired --no-compact and declared-POR switches raise"
          test_retired_switches_raise;
        quick "incremental shared digest = full recomputation"
          test_incremental_digest_matches_full;
        quick "incremental shared digest follows a step's every write"
          test_incremental_digest_matches_full_on_two_writes;
      ]
      @ qcheck
          [
            qcheck_cache_key_equality;
            qcheck_commute_iff_no_raw_conflict;
            qcheck_accesses_canonical;
          ] );
  ]
