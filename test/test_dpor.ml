(* The DPOR reduction's own suite: differential validation against the
   unreduced engines over every case of test/cases.ml (safety and
   liveness legs), the race-reversal/conflict-oracle agreement
   property, the commutation oracle over every base-object primitive,
   and the max-period default boundary regression.

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

let diff_explore_case (Cases.Case c) =
  let depth = min c.Cases.c_depth 5 in
  let max_crashes = min c.Cases.c_max_crashes 1 in
  let run ~dpor ~check =
    Explore.explore ~n:c.Cases.c_n ~factory:c.Cases.c_factory
      ~invoke:c.Cases.c_invoke ~depth ~max_crashes ~dpor ~check ()
  in
  (* Verdict identity and reduction on a passing check. *)
  let full = run ~dpor:false ~check:(fun _ -> true) in
  let red = run ~dpor:true ~check:(fun _ -> true) in
  (match (full.Explore.outcome, red.Explore.outcome) with
  | Explore.Ok a, Explore.Ok b ->
      check_bool
        (c.Cases.c_name ^ ": dpor explores a non-empty subset of the runs")
        true
        (1 <= b && b <= a)
  | _ ->
      Alcotest.failf "%s: always-true check produced a counterexample"
        c.Cases.c_name);
  (* Lex-least witness identity on an always-failing check — trivially
     invariant under commutation, and failing on every maximal run, so
     both engines must surface the leftmost maximal script. *)
  let fullx = run ~dpor:false ~check:(fun _ -> false) in
  let redx = run ~dpor:true ~check:(fun _ -> false) in
  match (fullx.Explore.witness_script, redx.Explore.witness_script) with
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
(* Liveness leg: Live_explore with dpor (cycle proviso) on vs off, on  *)
(* every registry implementation.  [good] is constantly false so any   *)
(* fair cycle violates (1,1)-freedom — the reduced search must emit    *)
(* the byte-identical certificate, or agree there is none.             *)

let diff_live_case (Cases.Case c) =
  let depth = min c.Cases.c_depth 7 in
  let run ~dpor =
    Live_explore.search ~n:c.Cases.c_n ~factory:c.Cases.c_factory
      ~invoke:c.Cases.c_invoke
      ~good:(fun _ -> false)
      ~point:(Freedom.make ~l:1 ~k:1) ~depth ~dpor ()
  in
  let full = run ~dpor:false in
  let red = run ~dpor:true in
  match (full.Live_explore.outcome, red.Live_explore.outcome) with
  | Live_explore.No_fair_cycle, Live_explore.No_fair_cycle -> ()
  | Live_explore.Lasso a, Live_explore.Lasso b ->
      let show part ds =
        part ^ "=" ^ show_script c.Cases.c_pp_inv ds
      in
      Alcotest.(check string)
        (c.Cases.c_name ^ ": identical lasso stem")
        (show "stem" a.Lasso.c_stem) (show "stem" b.Lasso.c_stem);
      Alcotest.(check string)
        (c.Cases.c_name ^ ": identical lasso cycle")
        (show "cycle" a.Lasso.c_cycle)
        (show "cycle" b.Lasso.c_cycle)
  | Live_explore.Lasso _, Live_explore.No_fair_cycle ->
      Alcotest.failf "%s: dpor search missed the lasso" c.Cases.c_name
  | Live_explore.No_fair_cycle, Live_explore.Lasso _ ->
      Alcotest.failf "%s: dpor search invented a lasso" c.Cases.c_name

let test_live_differential () =
  List.iter diff_live_case (Cases.all ())

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
(* QCheck: [Dpor.advance] wakes a sleeper iff some pair of raw         *)
(* accesses is a genuine observed conflict, so every race reversal is  *)
(* one.  Object ids range over the 0..61 direct-bit window, past it    *)
(* and below zero, so the footprints' spill lists race too.            *)

let accesses_gen =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (map
         (fun (o, w) -> { Runtime.obj = o; write = w })
         (pair
            (oneof [ int_range 0 5; int_range 58 70; int_range (-4) (-1) ])
            bool)))

let woken ~observed fp =
  snd (Dpor.advance ~observed [ (1, fp) ] (Driver.Schedule 2)) <> []

let qcheck_wakes_iff_conflict =
  QCheck2.Test.make ~count:500
    ~name:"Dpor.advance wakes <=> an observed conflict pair exists"
    QCheck2.Gen.(pair accesses_gen accesses_gen)
    (fun (observed_raw, sleeper_raw) ->
      woken
        ~observed:(Runtime.of_accesses observed_raw)
        (Runtime.of_accesses sleeper_raw)
      = List.exists
          (fun a -> List.exists (Dpor.observed_conflict a) sleeper_raw)
          observed_raw)

let qcheck_opaque_sleeper_always_wakes =
  QCheck2.Test.make ~count:100
    ~name:"Dpor.advance always wakes an opaque sleeper" accesses_gen
    (fun observed_raw ->
      woken ~observed:(Runtime.of_accesses observed_raw) Runtime.opaque)

(* ------------------------------------------------------------------ *)
(* QCheck: the commutation oracle.  Two ready steps whose observed     *)
(* footprints commute reach the same configuration in either order:    *)
(* the same shared state, the same observation digest and status of    *)
(* every process, and the same per-process histories.  The steps are   *)
(* drawn from every primitive of Slx_base_objects — a failed and a     *)
(* successful CAS or test-and-set among them — and from the first step *)
(* of a one-shot register consensus and of a universal object, which   *)
(* build a round or a log slot between steps.  Process 3 first runs a   *)
(* drawn list of operations solo, so the objects start in drawn states *)
(* (a CAS that fails, a set test-and-set, a round already built).      *)
(* Values range over 0..2 so that a CAS's expected value often meets   *)
(* the other step's write.                                              *)

type op =
  | Reg_read
  | Reg_write of int
  | Cas_read
  | Cas of int * int  (** expected, desired *)
  | Tas
  | Tas_reset
  | Tas_read
  | Faa of int
  | Faa_read
  | Enqueue of int
  | Dequeue
  | Snap_update of int
  | Snap_scan
  | Oneshot of int  (** propose to a one-shot register consensus *)
  | Universal_push of int  (** push onto a universal stack over CAS *)

(* A CAS or a test-and-set either fails, reading only, or succeeds,
   writing: the two branches observe different footprints, so these
   primitives are drawn more often. *)
let op_gen =
  QCheck2.Gen.(
    let v = int_range 0 2 in
    frequency
      [
        (1, pure Reg_read);
        (1, map (fun x -> Reg_write x) v);
        (1, pure Cas_read);
        (4, map2 (fun e d -> Cas (e, d)) v v);
        (2, pure Tas);
        (1, pure Tas_reset);
        (1, pure Tas_read);
        (1, map (fun x -> Faa x) v);
        (1, pure Faa_read);
        (1, map (fun x -> Enqueue x) v);
        (1, pure Dequeue);
        (1, map (fun x -> Snap_update x) v);
        (1, pure Snap_scan);
        (1, map (fun x -> Oneshot x) v);
        (1, map (fun x -> Universal_push x) v);
      ])

let pp_op = function
  | Reg_read -> "reg.read"
  | Reg_write x -> Printf.sprintf "reg.write %d" x
  | Cas_read -> "cas.read"
  | Cas (e, d) -> Printf.sprintf "cas %d->%d" e d
  | Tas -> "tas"
  | Tas_reset -> "tas.reset"
  | Tas_read -> "tas.read"
  | Faa x -> Printf.sprintf "faa %d" x
  | Faa_read -> "faa.read"
  | Enqueue x -> Printf.sprintf "enqueue %d" x
  | Dequeue -> "dequeue"
  | Snap_update x -> Printf.sprintf "snap.update %d" x
  | Snap_scan -> "snap.scan"
  | Oneshot x -> Printf.sprintf "oneshot %d" x
  | Universal_push x -> Printf.sprintf "universal.push %d" x

(* The objects are built in this order, so under a fresh registry the
   register has id 1, the CAS 2, the test-and-set 3, the counter 4,
   the queue 5 and the snapshot 6. *)
let primitives_factory ~n =
  let module B = Slx_base_objects in
  let reg = B.Register.make 0 in
  let cas = B.Cas.make 0 in
  let tas = B.Test_and_set.make () in
  let faa = B.Fetch_and_add.make 0 in
  let queue = B.Queue.make [] in
  let snap = B.Snapshot.make ~n 0 in
  let oneshot = Slx_objects.One_shot_consensus.Registers.make ~n () in
  let universal =
    Slx_objects.Universal.factory
      ~tp:(module Slx_objects.Stack_type.Self)
      ~consensus:`Cas ~max_ops:16 () ~n
  in
  let int_of_bool b = if b then 1 else 0 in
  fun ~proc -> function
    | Reg_read -> B.Register.read reg
    | Reg_write x ->
        B.Register.write reg x;
        0
    | Cas_read -> B.Cas.read cas
    | Cas (expected, desired) ->
        int_of_bool (B.Cas.compare_and_swap cas ~expected ~desired)
    | Tas -> int_of_bool (B.Test_and_set.test_and_set tas)
    | Tas_reset ->
        B.Test_and_set.reset tas;
        0
    | Tas_read -> int_of_bool (B.Test_and_set.read tas)
    | Faa x -> B.Fetch_and_add.fetch_and_add faa x
    | Faa_read -> B.Fetch_and_add.read faa
    | Enqueue x ->
        B.Queue.enqueue queue x;
        0
    | Dequeue -> Option.value (B.Queue.dequeue queue) ~default:(-1)
    | Snap_update x ->
        B.Snapshot.update snap proc x;
        0
    | Snap_scan -> Array.fold_left (fun acc x -> (3 * acc) + x) 0 (B.Snapshot.scan snap)
    | Oneshot x ->
        Slx_objects.One_shot_consensus.Registers.propose oneshot ~proc x
    | Universal_push x ->
        Runtime.hash_value
          (universal ~proc (Slx_objects.Stack_type.Push x))

(* Process 3's solo operations, each run to its response. *)
let rec solo_setup cursor = function
  | [] -> ()
  | op :: ops ->
      Runner.Cursor.apply cursor (Driver.Invoke (3, op));
      while (Runner.Cursor.view cursor).Driver.status 3 = Runtime.Ready do
        Runner.Cursor.apply cursor (Driver.Schedule 3)
      done;
      solo_setup cursor ops

(* From the configuration where process 3 ran [setup] and processes 1
   and 2 were invoked with [op1] and [op2]: the first step's observed
   footprint, then the configuration after both steps in the order
   [first], [second]. *)
let two_steps ~factory (setup, op1, op2) first second =
  let probe = Runtime.make_probe () in
  Runner.Cursor.with_ ~n:3 ~factory ~probe (fun c ->
      solo_setup c setup;
      Runner.Cursor.apply c (Driver.Invoke (1, op1));
      Runner.Cursor.apply c (Driver.Invoke (2, op2));
      let ready p = (Runner.Cursor.view c).Driver.status p = Runtime.Ready in
      if not (ready 1 && ready 2) then None
      else begin
        Runner.Cursor.apply c (Driver.Schedule first);
        let fp = Runtime.probe_last_observed probe in
        Runner.Cursor.apply c (Driver.Schedule second);
        let history = (Runner.Cursor.view c).Driver.history in
        (* The key without its history slot: the two orders interleave
           the processes' events differently, so only each process's
           projection of the history is compared. *)
        let key = Runner.Cursor.compact_key c ~extra:[] in
        Some
          ( fp,
            ( Array.append (Array.sub key 0 1)
                (Array.sub key 2 (Array.length key - 2)),
              List.map (Slx_history.History.project history) [ 1; 2; 3 ] ) )
      end)

(* Whether the two orders of a drawn pair agree wherever the observed
   footprints commute. *)
let commuting_orders_agree ~factory case =
  match (two_steps ~factory case 1 2, two_steps ~factory case 2 1) with
  | Some (fp1, after12), Some (fp2, after21) ->
      (not (Runtime.commute fp1 fp2)) || after12 = after21
  | _ -> true

let commutation_case_gen =
  QCheck2.Gen.(triple (list_size (int_range 0 3) op_gen) op_gen op_gen)

let print_case (setup, op1, op2) =
  Printf.sprintf "setup [%s], p1 %s, p2 %s"
    (String.concat "; " (List.map pp_op setup))
    (pp_op op1) (pp_op op2)

let qcheck_commuting_steps_commute =
  QCheck2.Test.make ~count:1000
    ~name:"two steps with commuting observed footprints commute"
    ~print:print_case commutation_case_gen
    (commuting_orders_agree ~factory:primitives_factory)

(* What one step of each primitive observes, after process 3's solo
   [setup]: a failed CAS or test-and-set and a dequeue from an empty
   queue only read their object, a successful one writes it. *)
let test_primitive_footprints () =
  let observed setup op =
    let probe = Runtime.make_probe () in
    Runner.Cursor.with_ ~n:3 ~factory:primitives_factory ~probe (fun c ->
        solo_setup c setup;
        Runner.Cursor.apply c (Driver.Invoke (1, op));
        Runner.Cursor.apply c (Driver.Schedule 1);
        Runtime.probe_last_observed probe)
  in
  let r obj = { Runtime.obj; write = false }
  and w obj = { Runtime.obj; write = true } in
  List.iter
    (fun (setup, op, expected) ->
      check_bool
        (Printf.sprintf "%s after [%s]" (pp_op op)
           (String.concat "; " (List.map pp_op setup)))
        true
        (observed setup op = Runtime.of_accesses expected))
    [
      ([], Reg_read, [ r 1 ]);
      ([], Reg_write 1, [ w 1 ]);
      ([], Cas_read, [ r 2 ]);
      ([], Cas (0, 1), [ w 2 ]);
      ([], Cas (1, 2), [ r 2 ]);
      ([], Tas, [ w 3 ]);
      ([ Tas ], Tas, [ r 3 ]);
      ([ Tas ], Tas_reset, [ w 3 ]);
      ([], Tas_read, [ r 3 ]);
      ([], Faa 1, [ w 4 ]);
      ([], Faa_read, [ r 4 ]);
      ([], Enqueue 1, [ w 5 ]);
      ([], Dequeue, [ r 5 ]);
      ([ Enqueue 1 ], Dequeue, [ w 5 ]);
      ([], Snap_update 1, [ w 6 ]);
      ([], Snap_scan, [ r 6 ]);
    ]

(* A nested [Runtime.atomic] runs inside the enclosing step: its
   touches are that step's, and the probe counts one step. *)
let test_nested_atomic_is_one_step () =
  let factory ~n:_ =
    let cell () = Runtime.register_object (fun () -> 0) in
    let a = cell () in
    let b = cell () in
    fun ~proc:_ () ->
      Runtime.atomic (fun () ->
          Runtime.touch ~obj:a ~write:false;
          Runtime.atomic (fun () -> Runtime.touch ~obj:b ~write:true))
  in
  let probe = Runtime.make_probe () in
  Runner.Cursor.with_ ~n:1 ~factory ~probe (fun c ->
      Runner.Cursor.apply c (Driver.Invoke (1, ()));
      Runner.Cursor.apply c (Driver.Schedule 1);
      check_int "one step" 1 (Runtime.probe_steps probe);
      check_bool "the nested write is the step's" true
        (Runtime.probe_last_observed probe
        = Runtime.of_accesses
            [ { Runtime.obj = 1; write = false }; { obj = 2; write = true } ]))

(* One step writes two cells, and another process reads the second.
   The read must wake the writer asleep beside it: the only failing
   run, the read before the write, is the last order the menu
   reaches, so a walk that missed the second write would report
   [Ok]. *)
let test_second_write_races_its_reader () =
  let factory () ~n:_ =
    let cell () =
      let r = ref 0 in
      (r, Runtime.register_object (fun () -> !r))
    in
    let a = cell () in
    let b = cell () in
    let store (r, obj) v =
      Runtime.touch ~obj ~write:true;
      r := v
    in
    fun ~proc -> function
      | `Poke v ->
          Runtime.atomic (fun () ->
              store a v;
              store b v);
          v
      | `Peek ->
          ignore proc;
          Runtime.atomic (fun () ->
              Runtime.touch ~obj:(snd b) ~write:false;
              !(fst b))
  in
  let invoke view p =
    if view.Driver.invocations p > 0 then None
    else Some (if p = 1 then `Poke 7 else `Peek)
  in
  (* A failing run: the peek returned the initial 0. *)
  let check r =
    not
      (List.mem 0
         (Slx_history.History.responses_of r.Run_report.history 2))
  in
  let script e =
    Option.map Explore.codes_of_script e.Explore.witness_script
  in
  let naive = Explore.explore_naive ~n:2 ~factory ~invoke ~depth:4 ~check () in
  let dpor =
    Explore.explore ~n:2 ~factory ~invoke ~depth:4 ~dpor:true ~check ()
  in
  check_bool "the naive walk fails" true (script naive <> None);
  check_bool "dpor finds the same least witness" true
    (script dpor = script naive)

(* A touch with no atomic step in flight raises: outside any process,
   from algorithm code between two steps, and from a crash's unwinding
   (doc/model.md §6: a crash touches no shared state). *)
let test_touch_outside_a_step_raises () =
  let outside = Invalid_argument "Runtime.touch: no atomic step in flight" in
  Alcotest.check_raises "a bare touch" outside (fun () ->
      Runtime.touch ~obj:1 ~write:false);
  let between ~n:_ ~proc:_ () = Runtime.atomic ignore; Runtime.touch ~obj:1 ~write:true in
  Alcotest.check_raises "a touch between two steps" outside (fun () ->
      Runner.Cursor.with_ ~n:1 ~factory:between (fun c ->
          Runner.Cursor.apply c (Driver.Invoke (1, ()));
          Runner.Cursor.apply c (Driver.Schedule 1)));
  let unwinding ~n:_ ~proc:_ () =
    try Runtime.atomic ignore
    with Runtime.Killed ->
      Runtime.touch ~obj:1 ~write:true;
      raise Runtime.Killed
  in
  Alcotest.check_raises "a touch while a crash unwinds" outside (fun () ->
      Runner.Cursor.with_ ~n:1 ~factory:unwinding (fun c ->
          Runner.Cursor.apply c (Driver.Invoke (1, ()));
          Runner.Cursor.apply c (Driver.Crash 1)))

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

(* Three atomic reads per operation: invocation runs to the
   first suspension, then each grant executes one action — the
   operation responds on its third grant, and the shared state and
   per-tick cells are identical across repetitions, so the cycle pumps
   forever. *)
let looper_factory ~n:_ =
  let r = ref 0 in
  let id = Runtime.register_object (fun () -> Runtime.hash_value !r) in
  let read () =
    Runtime.atomic (fun () ->
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

(* A sleep set of these processes; a crash child's class reads only
   which processes sleep. *)
let sleepers = List.map (fun p -> (p, Runtime.opaque))

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
    (dead both_ready ~sleep:(sleepers [ 2; 3 ]) 3 0);
  check_bool "the sleepers and an idle process with nothing to invoke: dead"
    true
    (dead Runtime.[ Crashed; Ready; Idle ] ~sleep:(sleepers [ 2 ]) 3 0);
  check_bool "a leaf by depth: not dead" false
    (dead ~depth:4 both_ready ~sleep:(sleepers [ 2; 3 ]) 3 0);
  check_bool "a leaf because every process is done: not dead" false
    (dead Runtime.[ Crashed; Idle; Idle ] ~sleep:(sleepers [ 2; 3 ]) 3 0);
  check_bool "an idle process has an invocation: not dead" false
    (dead ~can_invoke:true Runtime.[ Crashed; Ready; Idle ] ~sleep:(sleepers [ 2 ]) 3 0);
  check_bool "a root-prefix crash may follow: not dead" false
    (dead ~max_crashes:2 Runtime.[ Crashed; Idle; Idle ] ~sleep:(sleepers [ 2; 3 ]) 0 0);
  check_bool "a ready process is awake: not dead" false
    (dead both_ready ~sleep:(sleepers [ 2 ]) 3 0)

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
    (classify ~depth:4 both_ready ~sleep:(sleepers [ 2; 3 ]) 3 0);
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
    (classify both_ready ~sleep:(sleepers [ 2; 3 ]) 3 0)

let suites =
  [
    ( "dpor",
      [
        quick "explore differential over every case"
          test_explore_differential;
        quick "live-explore differential over every case"
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
        quick "a touch outside an atomic step raises"
          test_touch_outside_a_step_raises;
        quick "each primitive's step observes what it touched"
          test_primitive_footprints;
        quick "a nested atomic is part of its step"
          test_nested_atomic_is_one_step;
        quick "a step's second write races its reader"
          test_second_write_races_its_reader;
      ]
      @ qcheck
          [
            qcheck_wakes_iff_conflict;
            qcheck_opaque_sleeper_always_wakes;
            qcheck_commuting_steps_commute;
          ] );
  ]
