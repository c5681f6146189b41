(* The simulator kernel's shortcuts must be invisible.

   - The cursor's per-process invocation and event counters, which the
     driver view serves in place of history scans, equal those scans at
     every node of small exhaustive walks (register, cas and selfish
     consensus, TM I(1,2) with crashes, n = 2..4), and at every node
     the reduced engine asks for an invocation.
   - [Runner.Cursor.crash_view], which both explorers read to decide
     a crash child at its parent, equals the view after the crash is
     applied, and yields the same canonical menu; and the
     [Runner.Cursor.crash] snapshot they check a crash leaf from
     yields the applied crash's report and compact key, after its
     cursor has moved on.  At every node of the same walks (register
     and cas consensus, n = 2, 3, depth 8, one and two crashes).
   - The one-pass canonical menu equals the list-based menu it
     replaced, kept here as the oracle, at every node of naive walks,
     and an open crash child, which walks the menu its parent took on
     the crash view, counts that menu's prunes as before.
   - A keyless cursor calls no state reader, raises from every key
     function, still refuses a duplicate id, and replays every node to
     the keyed cursor's view and report.
   - [Runtime.hash_value]'s fast path for immediates yields the digest
     the deep fold defines, so no observation or registry digest moves.
   - A detached cursor's steps reach no probe, and its key still
     follows its run.
   - [Key_table] under its one-pass key hash: lookups agree with a
     structural reference table, and keys differing in one position
     are distinct entries. *)

open Slx_history
open Slx_sim
open Slx_core
open Slx_consensus
open Support

(* ------------------------------------------------------------------ *)
(* The view's counters against the scans they replace.                 *)

let scan_invocations view p =
  History.length
    (History.filter
       (fun e -> Event.is_invocation e && Proc.equal (Event.proc e) p)
       view.Driver.history)

let scan_events view p =
  History.length
    (History.filter (fun e -> Proc.equal (Event.proc e) p) view.Driver.history)

(* Whether every process's counters equal the scans. *)
let counters_agree view =
  List.for_all
    (fun p ->
      view.Driver.invocations p = scan_invocations view p
      && view.Driver.events p = scan_events view p)
    (Proc.all ~n:view.Driver.n)

(* Workloads whose next invocation is computed from the scans, so the
   tree walked does not depend on the counters under test. *)
let proposals view p =
  if scan_invocations view p >= 1 then None
  else Some (Consensus_type.Propose (p - 1))

let tm_ops ~cap view p =
  if scan_invocations view p >= cap then None
  else Some (Slx_tm.Tm_workload.next_invocation view p)

(* The decisions at [view]: grant a ready process, invoke an idle one
   the workload still feeds, crash a live one while the budget lasts. *)
let menu ~invoke ~budget view =
  let procs = Proc.all ~n:view.Driver.n in
  List.filter_map
    (fun p ->
      match view.Driver.status p with
      | Runtime.Ready -> Some (Driver.Schedule p)
      | Runtime.Idle ->
          Option.map (fun inv -> Driver.Invoke (p, inv)) (invoke view p)
      | Runtime.Crashed -> None)
    procs
  @
  if budget > 0 then
    List.filter_map
      (fun p ->
        if view.Driver.status p = Runtime.Crashed then None
        else Some (Driver.Crash p))
      procs
  else []

(* Every node of the depth-bounded decision tree, each reached by
   replaying its parent's prefix and applying its own last decision, so
   [ok] sees both paths a cursor takes.  [ok script budget cursor]
   judges a node.  Returns the nodes visited and the number of nodes
   [ok] rejects; by default [ok] checks the counters. *)
let walk ?(ok = fun _ _ c -> counters_agree (Runner.Cursor.view c)) ~n
    ~factory ~invoke ~depth ~crashes () =
  let nodes = ref 0 and bad = ref [] in
  let rec visit rev_script budget =
    let parent, last =
      match rev_script with
      | [] -> ([], None)
      | d :: rest -> (List.rev rest, Some d)
    in
    let children =
      Runner.Cursor.with_ ~n ~factory:(factory ()) ~prefix:parent (fun c ->
          Option.iter (Runner.Cursor.apply c) last;
          incr nodes;
          let script = List.rev rev_script in
          if not (ok script budget c) then bad := script :: !bad;
          if List.length rev_script >= depth then []
          else menu ~invoke ~budget (Runner.Cursor.view c))
    in
    List.iter
      (fun d ->
        visit (d :: rev_script)
          (match d with Driver.Crash _ -> budget - 1 | _ -> budget))
      children
  in
  visit [] crashes;
  (!nodes, List.length !bad)

let consensus_cases =
  [
    ("register", fun () -> Register_consensus.factory ~max_rounds:8 ());
    ("cas", fun () -> Cas_consensus.factory ());
    ("selfish", fun () -> Selfish_consensus.factory ());
  ]

let test_counters_every_node () =
  let check name (nodes, bad) =
    check_int (name ^ ": counters equal the history scans") 0 bad;
    check_bool
      (Printf.sprintf "%s: walked %d nodes" name nodes)
      true (nodes > 1)
  in
  List.iter
    (fun (impl, factory) ->
      List.iter
        (fun (n, depth, crashes) ->
          check
            (Printf.sprintf "%s n=%d d=%d c=%d" impl n depth crashes)
            (walk ~n ~factory ~invoke:proposals ~depth ~crashes ()))
        [ (2, 7, 1); (3, 5, 1); (4, 4, 0) ])
    consensus_cases;
  List.iter
    (fun (n, depth) ->
      check
        (Printf.sprintf "tm I12 n=%d d=%d c=1" n depth)
        (walk ~n
           ~factory:(fun () -> Slx_tm.I12.factory ~vars:1)
           ~invoke:(tm_ops ~cap:2) ~depth ~crashes:1 ()))
    [ (2, 7); (3, 5) ]

(* The reduced engine's own views: every [invoke] call the cached
   DPOR + symmetry explorer makes sees counters equal to the scans. *)
let test_counters_in_engine () =
  List.iter
    (fun (impl, factory) ->
      List.iter
        (fun n ->
          let calls = ref 0 and bad = ref 0 in
          let invoke view p =
            incr calls;
            if not (counters_agree view) then incr bad;
            proposals view p
          in
          ignore
            (Explore.explore ~n ~factory ~invoke ~depth:8 ~max_crashes:1
               ~dpor:true ~symmetry:true
               ~check:(fun _ -> true)
               ());
          let name = Printf.sprintf "%s n=%d" impl n in
          check_int (name ^ ": engine views agree with the scans") 0 !bad;
          check_bool (name ^ ": invoke was consulted") true (!calls > 0))
        [ 2; 3 ])
    consensus_cases

(* ------------------------------------------------------------------ *)
(* The crash view against the crash applied.                           *)

(* Everything a view serves, each process's accessors read out. *)
let view_contents (v : _ Driver.view) =
  ( v.Driver.time,
    v.Driver.history,
    List.map
      (fun p ->
        (v.Driver.status p, v.Driver.steps p, v.Driver.invocations p,
         v.Driver.events p))
      (Proc.all ~n:v.Driver.n) )

(* The canonical menu's flag combinations: (symmetry, invoke_order). *)
let menu_flags =
  [ (false, false); (true, false); (false, true); (true, true) ]

(* A report's fields, the crash set as a sorted list. *)
let report_contents (r : _ Run_report.t) =
  ( ( r.Run_report.n,
      r.Run_report.history,
      r.Run_report.event_times,
      r.Run_report.grants ),
    ( Proc.Set.elements r.Run_report.crashed,
      r.Run_report.total_time,
      r.Run_report.window,
      r.Run_report.stopped ) )

(* At a node whose budget allows a crash, for every live process [q]:
   [Runner.Cursor.crash_view] equals the view of a replayed cursor that
   applied [Crash q], and the canonical menu after the crash, with
   symmetry and invocation order each on or off, is the same menu on
   both (the explorers hand an open crash child the first); and the
   {!Runner.Cursor.crash} snapshot, read after its cursor has moved on
   by one more decision, yields that cursor's report and compact key,
   history digest included. *)
let crash_view_exact ~n ~factory ~depth script budget c =
  let len = List.length script in
  let crashes =
    List.length
      (List.filter (function Driver.Crash _ -> true | _ -> false) script)
  in
  let canonical view q (symmetry, invoke_order) =
    Search.menu ~invoke:proposals ~depth
      ~max_crashes:(crashes + budget) ~symmetry ~invoke_order view
      ~last:(Some (Driver.Crash q)) (len + 1) (crashes + 1)
  in
  let view = Runner.Cursor.view c in
  let extra = [ 0; 2; 3 ] in
  budget = 0 || len >= depth
  || List.for_all
       (fun q ->
         view.Driver.status q = Runtime.Crashed
         ||
         let crashed = Runner.Cursor.crash_view c q in
         let snapshot =
           Runner.Cursor.with_ ~n ~factory:(factory ()) ~prefix:script
             (fun parent ->
               let x = Runner.Cursor.crash parent q in
               (* Moves on as the walk's first open child does. *)
               Runner.Cursor.apply parent
                 (List.hd
                    (menu ~invoke:proposals ~budget
                       (Runner.Cursor.view parent)));
               ( report_contents
                   (Runner.Cursor.crash_report x ~window:(len + 1) ()),
                 Runner.Cursor.crash_key x ~extra ))
         in
         Runner.Cursor.with_ ~n ~factory:(factory ()) ~prefix:script
           (fun applied ->
             Runner.Cursor.apply applied (Driver.Crash q);
             let report =
               report_contents
                 (Runner.Cursor.report applied ~window:(len + 1) ())
             in
             let key = Runner.Cursor.compact_key applied ~extra in
             let applied = Runner.Cursor.view applied in
             view_contents crashed = view_contents applied
             && snapshot = (report, key)
             && List.for_all
                  (fun flags ->
                    canonical crashed q flags = canonical applied q flags)
                  menu_flags))
       (Proc.all ~n)

let test_crash_view_exact () =
  List.iter
    (fun (impl, factory) ->
      List.iter
        (fun (n, depth, crashes) ->
          let nodes, bad =
            walk ~ok:(crash_view_exact ~n ~factory ~depth) ~n ~factory
              ~invoke:proposals ~depth ~crashes ()
          in
          let name = Printf.sprintf "%s n=%d d=%d c=%d" impl n depth crashes in
          check_int (name ^ ": crash views equal the applied crash") 0 bad;
          check_bool
            (Printf.sprintf "%s: walked %d nodes" name nodes)
            true (nodes > 1))
        [ (2, 8, 1); (3, 8, 1); (2, 8, 2); (3, 8, 2) ])
    (List.filter (fun (impl, _) -> impl <> "selfish") consensus_cases)

(* ------------------------------------------------------------------ *)
(* The one-pass menu against the list-based one it replaced.           *)

(* The canonical menu as it was built before the one-pass rewrite: the
   unrestricted menu's steps and invocations, then its crashes where
   [crash_placed] allows one, filtered for invocation order and
   symmetry.  Kept here as the oracle. *)
let oracle_menu ~invoke ~depth ~max_crashes ~symmetry ~invoke_order view
    ~last len crashes =
  let crash_placed p =
    match last with
    | Some (Driver.Schedule q | Driver.Invoke (q, _)) -> q = p
    | Some (Driver.Crash q) -> len = crashes && q < p
    | None | Some Driver.Stop -> true
  in
  let listed =
    if len >= depth then []
    else begin
      let procs = Proc.all ~n:view.Driver.n in
      List.filter_map
        (fun p ->
          match view.Driver.status p with
          | Runtime.Ready -> Some (Driver.Schedule p)
          | Runtime.Idle ->
              Option.map (fun inv -> Driver.Invoke (p, inv)) (invoke view p)
          | Runtime.Crashed -> None)
        procs
      @
      if crashes < max_crashes then
        List.filter_map
          (fun p ->
            if view.Driver.status p = Runtime.Crashed || not (crash_placed p)
            then None
            else Some (Driver.Crash p))
          procs
      else []
    end
  in
  let untouched p = view.Driver.events p = 0 in
  let pruned = ref 0 and invoked = ref false and crashed = ref false in
  let first seen =
    let taken = !seen in
    if taken then incr pruned;
    seen := true;
    not taken
  in
  let decisions =
    List.filter
      (function
        | Driver.Invoke (p, _) when invoke_order || (symmetry && untouched p) ->
            first invoked
        | Driver.Crash p when symmetry && untouched p -> first crashed
        | _ -> true)
      listed
  in
  (decisions, !pruned)

(* At every node of the naive walk, each flag combination's menu, one
   partial application per walk as the explorers hold it, equals the
   oracle's in decisions and pruned count. *)
let test_menu_oracle () =
  List.iter
    (fun (impl, factory) ->
      List.iter
        (fun (n, depth, budget) ->
          let menus =
            List.map
              (fun (symmetry, invoke_order) ->
                ( (symmetry, invoke_order),
                  Search.menu ~invoke:proposals ~depth
                    ~max_crashes:budget ~symmetry ~invoke_order ))
              menu_flags
          in
          let compared = ref 0 in
          let ok script _ c =
            let view = Runner.Cursor.view c in
            let len = List.length script in
            let crashes =
              List.length
                (List.filter
                   (function Driver.Crash _ -> true | _ -> false)
                   script)
            in
            let last = List.nth_opt (List.rev script) 0 in
            List.for_all
              (fun ((symmetry, invoke_order), menu) ->
                incr compared;
                menu view ~last len crashes
                = oracle_menu ~invoke:proposals ~depth ~max_crashes:budget
                    ~symmetry ~invoke_order view ~last len crashes)
              menus
          in
          let nodes, bad =
            walk ~ok ~n ~factory ~invoke:proposals ~depth ~crashes:budget ()
          in
          let name = Printf.sprintf "%s n=%d d=%d c=%d" impl n depth budget in
          check_int (name ^ ": menus equal the list-based oracle") 0 bad;
          check_bool
            (Printf.sprintf "%s: compared %d menus at %d nodes" name !compared
               nodes)
            true
            (!compared = 4 * nodes && nodes > 1))
        [ (2, 8, 0); (2, 8, 1); (2, 8, 2); (3, 6, 0); (3, 6, 1); (3, 6, 2) ])
    (List.filter (fun (impl, _) -> impl <> "selfish") consensus_cases)

(* ------------------------------------------------------------------ *)
(* An open crash child counts the prunes of the menu it is handed.     *)

(* The child of an open crash walks the menu its parent took on the
   crash view and counts that menu's prunes where its walk reaches the
   menu, as it did when it took the menu itself: these figures were
   pinned with the child taking its own menu; the CAS DPOR rows were
   re-pinned when sleepers came to carry the footprint their step
   observed, which prunes more nodes and so reaches fewer menus.  The
   [~dpor:false] rows
   keep a table, whose hits count none; the live rows count the
   invocation order's prunes. *)
let test_crash_child_prunes () =
  let cas () = Cas_consensus.factory ()
  and register () = Register_consensus.factory ~max_rounds:8 () in
  let invoke = Slx_serve.Queries.safety_invoke in
  List.iter
    (fun (impl, factory, n, crashes, dpor, nodes, hits, pruned) ->
      let s =
        (Explore.explore ~n ~factory ~invoke ~depth:8 ~max_crashes:crashes
           ~dpor ~symmetry:true
           ~check:(fun _ -> true)
           ())
          .Explore.stats
      in
      let name =
        Printf.sprintf "%s n=%d c=%d dpor=%b" impl n crashes dpor
      in
      check_int (name ^ ": nodes") nodes s.Explore_stats.nodes;
      check_int (name ^ ": cache hits") hits s.Explore_stats.cache_hits;
      check_int (name ^ ": symmetry_pruned") pruned
        s.Explore_stats.symmetry_pruned)
    [
      ("cas", cas, 3, 1, true, 222, 0, 11);
      ("cas", cas, 3, 2, true, 327, 0, 12);
      ("cas", cas, 4, 1, true, 607, 0, 62);
      ("cas", cas, 3, 1, false, 719, 168, 11);
      ("cas", cas, 4, 1, false, 2081, 586, 85);
      ("register", register, 3, 1, true, 264, 0, 18);
      ("register", register, 3, 1, false, 777, 330, 18);
    ];
  let live_invoke = Slx_serve.Queries.live_invoke in
  List.iter
    (fun (crashes, depth, max_period, nodes, hits, pruned) ->
      let s =
        (Live_explore.search ~n:3 ~factory:register ~invoke:live_invoke
           ~good:Consensus_type.good
           ~point:Slx_liveness.Freedom.obstruction_freedom ~depth
           ~max_crashes:crashes ?max_period ~dpor:true ())
          .Live_explore.stats
      in
      let name = Printf.sprintf "live register n=3 c=%d d=%d" crashes depth in
      check_int (name ^ ": nodes") nodes s.Explore_stats.nodes;
      check_int (name ^ ": cache hits") hits s.Explore_stats.cache_hits;
      check_int (name ^ ": invoke_order_prunes") pruned
        s.Explore_stats.invoke_order_prunes)
    [ (1, 8, None, 1183, 0, 18); (2, 8, None, 1676, 0, 18);
      (1, 9, Some 2, 2388, 115, 20) ]

(* ------------------------------------------------------------------ *)
(* Keyless cursors.                                                    *)

(* One-shot consensus on a single base object whose state reader counts
   its calls: the first proposal wins. *)
let counting_factory calls () : _ Runner.factory =
 fun ~n:_ ->
  let decided = ref None in
  let obj =
    Runtime.register_object (fun () ->
        incr calls;
        Runtime.hash_value !decided)
  in
  fun ~proc:_ (Consensus_type.Propose v) ->
    Runtime.atomic (fun () ->
        Runtime.touch ~obj ~write:false;
        match !decided with
        | Some w -> Consensus_type.Decided w
        | None ->
            Runtime.touch ~obj ~write:true;
            decided := Some v;
            Consensus_type.Decided v)

(* A walk without a table (DPOR with symmetry) never calls a state
   reader; the cached walk ([~dpor:false]) keys every node and does.
   Both find the object safe. *)
let test_keyless_reader_silent () =
  let explore ~dpor calls =
    Explore.explore ~n:3 ~factory:(counting_factory calls) ~invoke:proposals
      ~depth:8 ~max_crashes:1 ~dpor ~symmetry:true
      ~check:Slx_serve.Queries.check
      ()
  in
  let keyless = ref 0 and keyed = ref 0 in
  let a = explore ~dpor:true keyless and b = explore ~dpor:false keyed in
  check_int "dpor+symmetry: no reader call" 0 !keyless;
  check_bool "no dpor: the reader is called" true (!keyed > 0);
  check_bool "no dpor: a table was kept" true
    (b.Explore.stats.Explore_stats.cache_entries > 0);
  check_bool "both walks find agreement" true
    (match (a.Explore.outcome, b.Explore.outcome) with
    | Explore.Ok _, Explore.Ok _ -> true
    | _ -> false)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Every key function raises on a keyless cursor and on its crash
   snapshot, and none does on a keyed one. *)
let test_keyless_keys_raise () =
  let prefix = [ Driver.Invoke (1, Consensus_type.Propose 0) ] in
  let factory () = Cas_consensus.factory () in
  List.iter
    (fun keyed ->
      Runner.Cursor.with_ ~n:2 ~factory:(factory ()) ~keyed ~prefix (fun c ->
          let x = Runner.Cursor.crash c 2 in
          List.iter
            (fun (name, f) ->
              check_bool
                (Printf.sprintf "%s raises on a %s cursor" name
                   (if keyed then "keyed" else "keyless"))
                (not keyed) (raises_invalid f))
            [
              ("compact_key", fun () -> ignore (Runner.Cursor.compact_key c ~extra:[]));
              ("shared_digest", fun () -> ignore (Runner.Cursor.shared_digest c));
              ( "shared_digest_full",
                fun () -> ignore (Runner.Cursor.shared_digest_full c) );
              ("crash_key", fun () -> ignore (Runner.Cursor.crash_key x ~extra:[]));
            ]))
    [ true; false ]

(* Two objects built at one reserved id: refused by a keyless registry
   as by a keyed one. *)
let test_keyless_duplicate_id () =
  let factory ~n:_ =
    let blk = Runtime.reserve_ids 2 in
    let make () =
      Runtime.in_block blk ~offset:0 (fun () ->
          Slx_base_objects.Register.make 0)
    in
    ignore (make ());
    ignore (make ());
    fun ~proc:_ () -> ()
  in
  List.iter
    (fun keyed ->
      check_bool
        (Printf.sprintf "id registered twice raises (keyed=%b)" keyed)
        true
        (match Runner.Cursor.with_ ~n:1 ~factory ~keyed ignore with
        | () -> false
        | exception Invalid_argument msg ->
            msg = "Runtime.register_object: id registered twice"))
    [ true; false ]

(* At every node of the naive walk, a keyless cursor replaying the
   node's script has the view and report of the keyed cursor the walk
   built. *)
let test_keyless_replay_equal () =
  List.iter
    (fun (impl, factory) ->
      List.iter
        (fun (n, depth, crashes) ->
          let ok script _ keyed =
            Runner.Cursor.with_ ~n ~factory:(factory ()) ~keyed:false
              ~prefix:script (fun keyless ->
                let len = List.length script in
                view_contents (Runner.Cursor.view keyless)
                = view_contents (Runner.Cursor.view keyed)
                && report_contents
                     (Runner.Cursor.report keyless ~window:(len + 1) ())
                   = report_contents
                       (Runner.Cursor.report keyed ~window:(len + 1) ()))
          in
          let nodes, bad =
            walk ~ok ~n ~factory ~invoke:proposals ~depth ~crashes ()
          in
          let name = Printf.sprintf "%s n=%d d=%d c=%d" impl n depth crashes in
          check_int (name ^ ": keyless replays equal keyed cursors") 0 bad;
          check_bool
            (Printf.sprintf "%s: walked %d nodes" name nodes)
            true (nodes > 1))
        [ (2, 8, 1); (3, 6, 1) ])
    (List.filter (fun (impl, _) -> impl <> "selfish") consensus_cases)

(* A detached cursor, which a leaf's pump carries on from, applies
   outside the probe it was created with: the probe sees none of its
   later steps, while the run goes on and its key follows it, equal to
   the key of a cursor that replays the same decisions. *)
let test_detach_drops_probe () =
  let probe = Runtime.make_probe () in
  let propose p = Driver.Invoke (p, Slx_consensus.Consensus_type.Propose p) in
  let factory () = Slx_consensus.Register_consensus.factory () in
  let before = [ propose 1; Driver.Schedule 1 ]
  and after = [ propose 2; Driver.Schedule 2; Driver.Schedule 1 ] in
  Runner.Cursor.with_ ~n:2 ~factory:(factory ()) ~probe (fun c ->
      List.iter (Runner.Cursor.apply c) before;
      check_int "the probe saw the step" 1 (Runtime.probe_steps probe);
      Runner.Cursor.detach c;
      List.iter (Runner.Cursor.apply c) after;
      check_int "a detached cursor's steps reach no probe" 1
        (Runtime.probe_steps probe);
      check_int "the run goes on" 5 (Runner.Cursor.view c).Driver.time;
      check_bool "its key is the replayed run's" true
        (Runner.Cursor.compact_key c ~extra:[]
        = Runner.Cursor.with_ ~n:2 ~factory:(factory ())
            ~prefix:(before @ after) (fun r ->
              Runner.Cursor.compact_key r ~extra:[])))

(* ------------------------------------------------------------------ *)
(* hash_value on immediates.                                            *)

(* The deep fold's digest of an immediate [v]: one FNV multiply-xor of
   [v] into the seed, mixed, then the final mix. *)
let fold_of_immediate v =
  Runtime.mix64 (Runtime.mix64 ((0x811c9dc5 * 0x100000001b3) lxor v))

type colour = Red | Green | Blue

let immediates_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> (Obj.repr i, i)) int;
        map (fun i -> (Obj.repr i, i)) (oneofl [ 0; -1; max_int; min_int ]);
        map (fun b -> (Obj.repr b, Bool.to_int b)) bool;
        map (fun c -> (Obj.repr c, Char.code c)) char;
        return (Obj.repr (), 0);
        map
          (fun c -> (Obj.repr c, match c with Red -> 0 | Green -> 1 | Blue -> 2))
          (oneofl [ Red; Green; Blue ]);
        return (Obj.repr (None : int option), 0);
      ])

let qcheck_hash_value_immediates =
  QCheck2.Test.make ~count:1000
    ~name:"hash_value on immediates = the deep fold's digest"
    immediates_gen
    (fun (r, v) -> Runtime.hash_value r = fold_of_immediate v)

(* Digests recorded from the deep fold before the immediate fast path
   existed: immediates and blocks alike must keep them, or every stored
   observation digest would move. *)
let test_hash_value_pins () =
  List.iter
    (fun (name, got, expected) -> check_int ("hash_value " ^ name) expected got)
    [
      ("0", Runtime.hash_value 0, 3732281030105584126);
      ("1", Runtime.hash_value 1, 4196674364873478129);
      ("-1", Runtime.hash_value (-1), 2913409079390206313);
      ("max_int", Runtime.hash_value max_int, -522637360658887429);
      ("min_int", Runtime.hash_value min_int, 1148700963280182988);
      ("true", Runtime.hash_value true, 4196674364873478129);
      ("'a'", Runtime.hash_value 'a', -194383017376282159);
      ("()", Runtime.hash_value (), 3732281030105584126);
      ("Blue", Runtime.hash_value Blue, -1076997517333555431);
      ("Some 3", Runtime.hash_value (Some 3), 3234432858661802881);
      ("(1, \"a\")", Runtime.hash_value (1, "a"), -3274582422433584158);
      ("[1; 2; 3]", Runtime.hash_value [ 1; 2; 3 ], -1660838982608031536);
      ("\"slx\"", Runtime.hash_value "slx", 1273696944968031609);
    ]

(* ------------------------------------------------------------------ *)
(* Key_table under the one-pass hash.                                  *)

let key_gen =
  QCheck2.Gen.(
    map Array.of_list (list_size (int_range 1 40) (int_range (-4) 4)))

(* A replace/find sequence over a small key pool, so keys recur. *)
let ops_gen =
  QCheck2.Gen.(
    let* pool = list_size (int_range 1 12) key_gen in
    let pool = Array.of_list pool in
    list_size (int_range 1 200)
      (map2
         (fun i v -> (pool.(i mod Array.length pool), v))
         (int_range 0 1000) (int_range (-1) 50)))

(* [v < 0] looks the key up; otherwise it is replaced with [v]. *)
let qcheck_cache_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"Key_table: find_opt after replace = a structural Hashtbl"
    ops_gen
    (fun ops ->
      let table = Key_table.create 16 and reference = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          if v < 0 then
            Key_table.find_opt table (Array.copy k)
            = Hashtbl.find_opt reference k
          else begin
            Key_table.replace table (Array.copy k) v;
            Hashtbl.replace reference k v;
            Key_table.length table = Hashtbl.length reference
          end)
        ops)

let qcheck_cache_single_position =
  QCheck2.Test.make ~count:500
    ~name:"Key_table: keys differing in one position are distinct"
    QCheck2.Gen.(triple key_gen (int_range 0 39) (int_range 1 1_000_000))
    (fun (k, i, delta) ->
      let i = i mod Array.length k in
      let k' = Array.copy k in
      k'.(i) <- k.(i) + delta;
      let table = Key_table.create 16 in
      Key_table.replace table k 1;
      Key_table.replace table k' 2;
      Key_table.length table = 2
      && Key_table.find_opt table (Array.copy k) = Some 1
      && Key_table.find_opt table (Array.copy k') = Some 2)

let suites =
  [
    ( "kernel",
      [
        quick "view counters = history scans at every node"
          test_counters_every_node;
        quick "view counters = history scans in the reduced engine"
          test_counters_in_engine;
        quick "crash_view equals the crash applied" test_crash_view_exact;
        quick "the one-pass menu = the list-based oracle" test_menu_oracle;
        quick "an open crash child counts its menu's prunes"
          test_crash_child_prunes;
        quick "keyless walks call no state reader" test_keyless_reader_silent;
        quick "key functions raise on a keyless cursor" test_keyless_keys_raise;
        quick "keyless registries refuse a duplicate id"
          test_keyless_duplicate_id;
        quick "keyless replays equal keyed cursors" test_keyless_replay_equal;
        quick "a detached cursor applies outside its probe"
          test_detach_drops_probe;
        quick "hash_value keeps the deep fold's digests" test_hash_value_pins;
      ]
      @ qcheck
          [
            qcheck_hash_value_immediates;
            qcheck_cache_matches_reference;
            qcheck_cache_single_position;
          ] );
  ]
