(* The DPOR reduction's own suite: differential validation against the
   unreduced engines over the whole audit registry (safety and
   liveness legs), the race-reversal/conflict-oracle agreement
   property, and the max-period default boundary regression.

   The differential contract (ISSUE: cycle-sound source-set DPOR):
   with [dpor] on, both engines must report identical verdicts and —
   because the leftmost branch of the reduced tree is never slept —
   byte-identical lex-least counterexample scripts and lasso
   certificates, while exploring no more maximal runs than the
   unreduced walk. *)

open Slx_sim
open Slx_core
open Slx_liveness
open Support
module Audit = Slx_analysis.Audit
module Registry = Slx_analysis.Audit_registry

(* Render a decision script through the case's invocation printer so
   script comparisons are structural on strings (robust even for
   invocation types polymorphic compare dislikes) and failures print
   the diverging schedules. *)
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
(* Safety leg: Explore with dpor on vs all reductions off, on every    *)
(* registry implementation.                                            *)

let diff_explore_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 5 in
  let max_crashes = min c.Audit.c_max_crashes 1 in
  let run ~dpor ~check =
    Explore.explore ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~depth ~max_crashes ~dpor ~check ()
  in
  (* Verdict identity and reduction on a passing check. *)
  let full = run ~dpor:false ~check:(fun _ -> true) in
  let red = run ~dpor:true ~check:(fun _ -> true) in
  (match (full.Explore.outcome, red.Explore.outcome) with
  | Explore.Ok a, Explore.Ok b ->
      check_bool
        (c.Audit.c_name ^ ": dpor explores a non-empty subset of the runs")
        true
        (1 <= b && b <= a)
  | _ ->
      Alcotest.failf "%s: always-true check produced a counterexample"
        c.Audit.c_name);
  (* Lex-least witness identity on an always-failing check — trivially
     invariant under commutation, and failing on every maximal run, so
     both engines must surface the leftmost maximal script. *)
  let fullx = run ~dpor:false ~check:(fun _ -> false) in
  let redx = run ~dpor:true ~check:(fun _ -> false) in
  match (fullx.Explore.witness_script, redx.Explore.witness_script) with
  | Some a, Some b ->
      Alcotest.(check string)
        (c.Audit.c_name ^ ": identical lex-least counterexample script")
        (show_script c.Audit.c_pp_inv a)
        (show_script c.Audit.c_pp_inv b)
  | _ ->
      Alcotest.failf "%s: always-false check produced no counterexample"
        c.Audit.c_name

let test_explore_differential () =
  List.iter diff_explore_case (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Liveness leg: Live_explore with dpor (cycle proviso) on vs off, on  *)
(* every registry implementation.  [good] is constantly false so any   *)
(* fair cycle violates (1,1)-freedom — the reduced search must emit    *)
(* the byte-identical certificate, or agree there is none.             *)

let diff_live_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 7 in
  let run ~dpor =
    Live_explore.search ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke
      ~good:(fun _ -> false)
      ~point:(Freedom.make ~l:1 ~k:1) ~depth ~dpor ()
  in
  let full = run ~dpor:false in
  let red = run ~dpor:true in
  match (full.Live_explore.outcome, red.Live_explore.outcome) with
  | Live_explore.No_fair_cycle, Live_explore.No_fair_cycle -> ()
  | Live_explore.Lasso a, Live_explore.Lasso b ->
      let show part ds =
        part ^ "=" ^ show_script c.Audit.c_pp_inv ds
      in
      Alcotest.(check string)
        (c.Audit.c_name ^ ": identical lasso stem")
        (show "stem" a.Lasso.c_stem) (show "stem" b.Lasso.c_stem);
      Alcotest.(check string)
        (c.Audit.c_name ^ ": identical lasso cycle")
        (show "cycle" a.Lasso.c_cycle)
        (show "cycle" b.Lasso.c_cycle)
  | Live_explore.Lasso _, Live_explore.No_fair_cycle ->
      Alcotest.failf "%s: dpor search missed the lasso" c.Audit.c_name
  | Live_explore.No_fair_cycle, Live_explore.Lasso _ ->
      Alcotest.failf "%s: dpor search invented a lasso" c.Audit.c_name

let test_live_differential () =
  List.iter diff_live_case (Registry.all ())

(* The registry cases yield no lasso at their shallow depths (the
   sweep above proves agreement on [No_fair_cycle] and that the
   reduction neither invents nor misses one); the positive half of the
   certificate-identity contract is Theorem 5.2's own witness: the
   register-consensus (1,2) lasso at depth 8, which the DPOR search
   must reproduce byte-identically with fewer nodes than the
   exhaustive one. *)

let pp_consensus_inv (Slx_consensus.Consensus_type.Propose v) =
  "propose " ^ string_of_int v

let test_register_cert_identity () =
  let run ~dpor =
    Live_explore.search ~n:2
      ~factory:(fun () ->
        Slx_consensus.Register_consensus.factory ~max_rounds:8 ())
      ~invoke:Slx_serve.Queries.live_invoke
      ~good:Slx_consensus.Consensus_type.good
      ~point:(Freedom.make ~l:1 ~k:2) ~depth:8 ~dpor ()
  in
  let cert name r =
    match r.Live_explore.outcome with
    | Live_explore.Lasso c -> c
    | Live_explore.No_fair_cycle ->
        Alcotest.failf "register (1,2) %s: expected a lasso" name
  in
  let base = run ~dpor:false and red = run ~dpor:true in
  let b = cert "baseline" base and c = cert "dpor" red in
  Alcotest.(check string)
    "dpor: identical stem"
    (show_script pp_consensus_inv b.Lasso.c_stem)
    (show_script pp_consensus_inv c.Lasso.c_stem);
  Alcotest.(check string)
    "dpor: identical cycle"
    (show_script pp_consensus_inv b.Lasso.c_cycle)
    (show_script pp_consensus_inv c.Lasso.c_cycle);
  check_bool "dpor: a strict reduction" true
    (red.Live_explore.stats.Explore_stats.nodes
    < base.Live_explore.stats.Explore_stats.nodes)

(* ------------------------------------------------------------------ *)
(* QCheck: [Dpor.wakes] wakes a sleeper iff some pair of raw accesses  *)
(* is a genuine observed conflict — the same oracle the happens-before *)
(* certifier cross-checks runs with ([Hb.observed_conflict] is the     *)
(* same binding).  So every race reversal is a certifiable conflict.   *)
(* Object ids range over the 0..61 direct-bit window, past it and      *)
(* below zero, so the footprints' spill lists race too.                *)

let accesses_gen =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (map
         (fun (o, w) -> { Runtime.obj = o; write = w })
         (pair
            (oneof [ int_range 0 5; int_range 58 70; int_range (-4) (-1) ])
            bool)))

let qcheck_wakes_iff_conflict =
  QCheck2.Test.make ~count:500
    ~name:"Dpor.wakes <=> an Hb-observed conflict pair exists"
    QCheck2.Gen.(pair accesses_gen accesses_gen)
    (fun (observed_raw, pending_raw) ->
      let observed = Runtime.of_accesses observed_raw in
      let pending = Runtime.of_accesses pending_raw in
      let wakes = Dpor.wakes ~observed ~pending:(Some pending) in
      let conflict =
        List.exists
          (fun a -> List.exists (Dpor.observed_conflict a) pending_raw)
          observed_raw
      in
      let same_oracle =
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                Dpor.observed_conflict a b
                = Slx_analysis.Hb.observed_conflict a b)
              pending_raw)
          observed_raw
      in
      wakes = conflict && same_oracle)

let qcheck_unknown_pending_always_wakes =
  QCheck2.Test.make ~count:100
    ~name:"Dpor.wakes is conservative on an unknown pending footprint"
    accesses_gen
    (fun observed_raw ->
      Dpor.wakes ~observed:(Runtime.of_accesses observed_raw) ~pending:None)

(* ------------------------------------------------------------------ *)
(* max_period default boundary (satellite: ceil(depth / 2)).  A solo   *)
(* looper whose operation completes every 3 scheduling grants pumps a  *)
(* period-4 tick cycle (I1,S1,S1,S1).  At depth 9 two repetitions fit  *)
(* (2 * 4 <= 8) and the odd-depth default max_period = ceil(9/2) = 5   *)
(* admits the period — the truncating depth/2 = 4 would too, but at    *)
(* depth 9 with period as large as 4 only the ceiling keeps headroom;  *)
(* the sharper check is that an explicit max_period below the true     *)
(* period silently misses the lasso, which is exactly what a floored   *)
(* default would do to a boundary-period instance.                     *)

type looper_inv = Go
type looper_res = Done

(* Three declared atomic reads per operation: invocation runs to the
   first suspension, then each grant executes one action — the
   operation responds on its third grant, and the shared state and
   per-tick cells are identical across repetitions, so the cycle pumps
   forever. *)
let looper_factory ~n:_ =
  let r = ref 0 in
  let id = Runtime.register_object (fun () -> Runtime.hash_value !r) in
  let read () =
    Runtime.atomic_access ~obj:id ~write:false (fun () ->
        Runtime.touch ~obj:id ~write:false;
        !r)
  in
  fun ~proc:_ Go ->
    ignore (read ());
    ignore (read ());
    ignore (read ());
    Done

let looper_search ?max_period ~depth () =
  Live_explore.search ~n:1
    ~factory:(fun () -> looper_factory)
    ~invoke:(fun _ _ -> Some Go)
    ~good:(fun Done -> false)
    ~point:(Freedom.make ~l:1 ~k:1) ~depth ?max_period ()

let test_max_period_default_finds_boundary_lasso () =
  let r = looper_search ~depth:9 () in
  match r.Live_explore.outcome with
  | Live_explore.Lasso c ->
      check_int "the looper's cycle has period 4"
        4
        (List.length c.Lasso.c_cycle);
      (* And the certificate replays. *)
      (match Lasso.pump ~factory:looper_factory ~repetitions:3 c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "looper pump failed: %s" e.Lasso.reason)
  | Live_explore.No_fair_cycle ->
      Alcotest.fail
        "depth-9 default max_period must admit the period-4 lasso"

let test_max_period_below_period_misses_lasso () =
  let r = looper_search ~max_period:3 ~depth:9 () in
  match r.Live_explore.outcome with
  | Live_explore.No_fair_cycle -> ()
  | Live_explore.Lasso _ ->
      Alcotest.fail "max_period 3 cannot detect a period-4 cycle"

(* ------------------------------------------------------------------ *)
(* Canonical crash placement (doc/model.md §6).                        *)

(* [Search.menu] on hand-built views of three processes,
   each with one more invocation to issue when idle.  [Crash p] stands
   directly after a step or invocation of [p], or in an ascending
   all-crash prefix at the root; the symmetry filter then keeps the
   least untouched process's crash, and the live walk's invoke order
   the least idle process's invocation. *)
let test_canonical_crash_placement () =
  let view statuses : (unit, unit) Driver.view =
    let status p = List.nth statuses (p - 1) in
    {
      Driver.time = 0;
      n = 3;
      history = Slx_history.History.empty;
      status;
      steps = (fun _ -> 0);
      invocations = (fun _ -> 0);
      events = (fun p -> if status p = Runtime.Idle then 0 else 1);
    }
  in
  let menu ?(symmetry = false) ?(invoke_order = false) ?(max_crashes = 1)
      statuses ~last len crashes =
    let decisions, pruned =
      Search.menu
        ~invoke:(fun _ _ -> Some ())
        ~depth:8 ~max_crashes ~symmetry ~invoke_order (view statuses) ~last
        len crashes
    in
    (show_script (fun () -> "") decisions, pruned)
  in
  let check label expected got =
    Alcotest.(check (pair string int)) label expected got
  in
  let ready = Runtime.[ Ready; Ready; Idle ] in
  check "after Schedule p: Crash p" ("S1;S2;I3();C1", 0)
    (menu ready ~last:(Some (Driver.Schedule 1)) 3 0);
  check "after Invoke p: Crash p" ("S1;S2;I3();C2", 0)
    (menu ready ~last:(Some (Driver.Invoke (2, ()))) 3 0);
  check "after q's step: Crash q, not Crash p" ("S1;S2;I3();C2", 0)
    (menu ready ~last:(Some (Driver.Schedule 2)) 3 0);
  check "after a mid-run crash: none" ("S1;S2", 0)
    (menu ~max_crashes:2 Runtime.[ Ready; Ready; Crashed ]
       ~last:(Some (Driver.Crash 3)) 4 1);
  let idle = Runtime.[ Idle; Idle; Idle ] in
  check "at the root: every crash" ("I1();I2();I3();C1;C2;C3", 0)
    (menu idle ~last:None 0 0);
  check "in the root prefix: ascending" ("I1();I3();C3", 0)
    (menu ~max_crashes:2 Runtime.[ Idle; Crashed; Idle ]
       ~last:(Some (Driver.Crash 2)) 1 1);
  check "with symmetry, at the root: the least untouched" ("I1();C1", 4)
    (menu ~symmetry:true idle ~last:None 0 0);
  check "with symmetry, in the root prefix" ("I2();C2", 2)
    (menu ~symmetry:true ~max_crashes:2 Runtime.[ Crashed; Idle; Idle ]
       ~last:(Some (Driver.Crash 1)) 1 1);
  check "with symmetry, after Invoke p: Crash p" ("S1;I2();C1", 1)
    (menu ~symmetry:true Runtime.[ Ready; Idle; Idle ]
       ~last:(Some (Driver.Invoke (1, ()))) 1 0);
  check "with invoke order, at the root" ("I1();C1;C2;C3", 2)
    (menu ~invoke_order:true idle ~last:None 0 0);
  check "with invoke order, after a root crash" ("I2();C2;C3", 1)
    (menu ~invoke_order:true ~max_crashes:2 Runtime.[ Crashed; Idle; Idle ]
       ~last:(Some (Driver.Crash 1)) 1 1);
  check "with invoke order, after Invoke p" ("S2;I3();C2", 0)
    (menu ~invoke_order:true ~max_crashes:2 Runtime.[ Crashed; Ready; Idle ]
       ~last:(Some (Driver.Invoke (2, ()))) 2 1)

(* Hand-built views of three processes after [Crash 1], with
   process 1 crashed. *)
let crashed_view statuses : (unit, unit) Driver.view =
  let status p = List.nth statuses (p - 1) in
  {
    Driver.time = 4;
    n = 3;
    history = Slx_history.History.empty;
    status;
    steps = (fun _ -> 0);
    invocations = (fun _ -> 0);
    events = (fun p -> if status p = Runtime.Idle then 0 else 1);
  }

(* [Search.crash_child] of the child [Crash 1] on such a view, by the
   safety walk's menu, the node's depth, crash count and sleep set
   given. *)
let classify ?(can_invoke = false) ?(max_crashes = 1) ?(depth = 8) statuses
    ~sleep len crashes =
  Search.crash_child
    ~menu:
      (Search.menu
         ~invoke:(fun _ _ -> if can_invoke then Some () else None)
         ~depth ~max_crashes ~symmetry:false ~invoke_order:false)
    (crashed_view statuses) ~sleep len crashes 1

(* The crash child is dead when every other ready process sleeps and no
   idle process can invoke.  A root-prefix crash child never meets a
   sleep set in the walk (the root's is empty and a crash child
   inherits its node's), so only the pin below sees the crash its menu
   may still offer. *)
let test_dead_crash_children () =
  let dead ?can_invoke ?max_crashes ?depth statuses ~sleep len crashes =
    classify ?can_invoke ?max_crashes ?depth statuses ~sleep len crashes
    = Search.Dead
  in
  let both_ready = Runtime.[ Crashed; Ready; Ready ] in
  check_bool "every other ready process sleeps: dead" true
    (dead both_ready ~sleep:[ 2; 3 ] 3 0);
  check_bool "the sleepers and an idle process with nothing to invoke: dead"
    true
    (dead Runtime.[ Crashed; Ready; Idle ] ~sleep:[ 2 ] 3 0);
  check_bool "a leaf by depth: not dead" false
    (dead ~depth:4 both_ready ~sleep:[ 2; 3 ] 3 0);
  check_bool "a leaf because every process is done: not dead" false
    (dead Runtime.[ Crashed; Idle; Idle ] ~sleep:[ 2; 3 ] 3 0);
  check_bool "an idle process has an invocation: not dead" false
    (dead ~can_invoke:true Runtime.[ Crashed; Ready; Idle ] ~sleep:[ 2 ] 3 0);
  check_bool "a root-prefix crash may follow: not dead" false
    (dead ~max_crashes:2 Runtime.[ Crashed; Idle; Idle ] ~sleep:[ 2; 3 ] 0 0);
  check_bool "a ready process is awake: not dead" false
    (dead both_ready ~sleep:[ 2 ] 3 0)

(* The crash child is a leaf exactly when its menu is empty, whatever
   the sleep set: at the depth bound, or where no process can move.  A
   leaf is checked from its parent's cursor, so a child with anything
   to offer, asleep or awake, must not be one. *)
let test_leaf_crash_children () =
  let kind = function
    | Search.Dead -> "dead"
    | Search.Leaf -> "leaf"
    | Search.Open -> "open"
  in
  let check name expected got =
    Alcotest.(check string) name expected (kind got)
  in
  let both_ready = Runtime.[ Crashed; Ready; Ready ] in
  check "at the depth bound, processes ready: leaf" "leaf"
    (classify ~depth:4 both_ready ~sleep:[] 3 0);
  check "at the depth bound, under a sleep set: leaf" "leaf"
    (classify ~depth:4 both_ready ~sleep:[ 2; 3 ] 3 0);
  check "no process can move: leaf" "leaf"
    (classify Runtime.[ Crashed; Idle; Idle ] ~sleep:[] 3 0);
  check "no process can move, crash budget left but not placed: leaf"
    "leaf"
    (classify ~max_crashes:3 Runtime.[ Crashed; Idle; Crashed ] ~sleep:[] 3 1);
  check "a ready process below the depth bound: open" "open"
    (classify both_ready ~sleep:[] 3 0);
  check "an idle process has an invocation: open" "open"
    (classify ~can_invoke:true Runtime.[ Crashed; Idle; Idle ] ~sleep:[] 3 0);
  check "a root-prefix crash may follow: open" "open"
    (classify ~max_crashes:2 Runtime.[ Crashed; Idle; Idle ] ~sleep:[] 0 0);
  check "only sleepers to offer: dead, not a leaf" "dead"
    (classify both_ready ~sleep:[ 2; 3 ] 3 0)

let suites =
  [
    ( "dpor",
      [
        quick "explore differential over the audit registry"
          test_explore_differential;
        quick "live-explore differential over the audit registry"
          test_live_differential;
        quick "register (1,2) certificate is identical under reduction"
          test_register_cert_identity;
        quick "default max_period admits the boundary period"
          test_max_period_default_finds_boundary_lasso;
        quick "a max_period below the true period misses the lasso"
          test_max_period_below_period_misses_lasso;
        quick "canonical crash placement" test_canonical_crash_placement;
        quick "dead crash children" test_dead_crash_children;
        quick "leaf crash children" test_leaf_crash_children;
      ]
      @ qcheck
          [ qcheck_wakes_iff_conflict; qcheck_unknown_pending_always_wakes ] );
  ]
