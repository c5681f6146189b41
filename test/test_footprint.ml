(* Observed footprints from the bottom up: the footprint algebra the
   DPOR engines race sleepers with, the probe that records what each
   step touched, the sleep set's split across a decision, and small
   walks whose size only the observed footprints of their sleepers
   decide. *)

open Slx_sim
open Slx_core
open Support

let r obj = { Runtime.obj; write = false }
let w obj = { Runtime.obj; write = true }

(* ------------------------------------------------------------------ *)
(* The footprint algebra.  Ids in the direct-bit window, at its edges, *)
(* past it and below zero, so the spill lists take part in every law.  *)

let gen_access =
  QCheck2.Gen.(
    let* obj =
      oneof [ int_range 0 4; int_range 59 64; int_range (-2) (-1) ]
    in
    let* write = bool in
    return { Runtime.obj; write })

let gen_accesses = QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 5) gen_access

let gen_footprint =
  QCheck2.Gen.(
    let* roll = int_range 0 10 in
    if roll = 0 then return Runtime.opaque
    else map Runtime.of_accesses (list_size (int_range 1 4) gen_access))

let print_accesses accs =
  String.concat ";"
    (List.map
       (fun a ->
         Printf.sprintf "%s%d" (if a.Runtime.write then "W" else "R") a.Runtime.obj)
       accs)

let print_footprint fp =
  match Runtime.accesses fp with
  | None -> "opaque"
  | Some accs -> "[" ^ print_accesses accs ^ "]"

let prop_commute_symmetric =
  QCheck2.Test.make ~name:"commute is symmetric" ~count:500
    ~print:(fun (a, b) -> print_footprint a ^ " " ^ print_footprint b)
    QCheck2.Gen.(pair gen_footprint gen_footprint)
    (fun (a, b) -> Runtime.commute a b = Runtime.commute b a)

let prop_commute_concat =
  QCheck2.Test.make
    ~name:"commuting with a concatenation = commuting with both parts"
    ~count:500
    QCheck2.Gen.(triple gen_accesses gen_accesses gen_footprint)
    (fun (l1, l2, c) ->
      Runtime.commute (Runtime.of_accesses (l1 @ l2)) c
      = (Runtime.commute (Runtime.of_accesses l1) c
        && Runtime.commute (Runtime.of_accesses l2) c))

let prop_accesses_canonical =
  QCheck2.Test.make
    ~name:"accesses: one per object, ascending, written iff some entry writes"
    ~count:500 ~print:print_accesses gen_accesses
    (fun accs ->
      match Runtime.accesses (Runtime.of_accesses accs) with
      | None -> false
      | Some got ->
          let objs = List.sort_uniq compare (List.map (fun a -> a.Runtime.obj) accs) in
          List.map (fun a -> a.Runtime.obj) got = objs
          && List.for_all
               (fun a ->
                 a.Runtime.write
                 = List.exists
                     (fun b -> b.Runtime.obj = a.Runtime.obj && b.Runtime.write)
                     accs)
               got)

let prop_accesses_round_trip =
  QCheck2.Test.make ~name:"of_accesses (accesses f) = f" ~count:500
    ~print:print_footprint gen_footprint
    (fun fp ->
      match Runtime.accesses fp with
      | None -> fp = Runtime.opaque
      | Some accs -> Runtime.of_accesses accs = fp)

let prop_order_and_repeats =
  QCheck2.Test.make ~name:"of_accesses ignores order and repeats" ~count:500
    ~print:print_accesses gen_accesses
    (fun accs ->
      let fp = Runtime.of_accesses accs in
      Runtime.of_accesses (List.rev accs) = fp
      && Runtime.of_accesses (accs @ accs) = fp)

let prop_empty_commutes =
  QCheck2.Test.make
    ~name:"the empty footprint commutes with every footprint but opaque"
    ~count:500 ~print:print_footprint gen_footprint
    (fun fp ->
      Runtime.commute (Runtime.of_accesses []) fp = (fp <> Runtime.opaque))

let prop_self_commute =
  QCheck2.Test.make ~name:"a footprint commutes with itself iff it writes nothing"
    ~count:500 ~print:print_footprint gen_footprint
    (fun fp ->
      Runtime.commute fp fp
      =
      match Runtime.accesses fp with
      | None -> false
      | Some accs -> List.for_all (fun a -> not a.Runtime.write) accs)

let test_opaque () =
  let empty = Runtime.of_accesses [] in
  check_bool "opaque lists no accesses" true (Runtime.accesses Runtime.opaque = None);
  check_bool "the empty footprint lists none" true (Runtime.accesses empty = Some []);
  check_bool "opaque does not commute with opaque" false
    (Runtime.commute Runtime.opaque Runtime.opaque);
  check_bool "opaque does not commute with the empty footprint" false
    (Runtime.commute Runtime.opaque empty);
  check_bool "opaque does not commute with a read" false
    (Runtime.commute Runtime.opaque (Runtime.of_accesses [ r 1 ]))

(* The ids on either side of the bit window's edges (below 0, 0, 61,
   62 and past it): the same id conflicts iff one access writes, and
   two different ids never conflict, so no spilled id aliases a bit. *)
let test_window_edges () =
  let ids = [ -2; -1; 0; 1; 60; 61; 62; 63; 124; 125 ] in
  let fp a = Runtime.of_accesses [ a ] in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          List.iter
            (fun (a, b) ->
              let label =
                Printf.sprintf "%s vs %s" (print_accesses [ a ]) (print_accesses [ b ])
              in
              check_bool label
                (i <> j || not (a.Runtime.write || b.Runtime.write))
                (Runtime.commute (fp a) (fp b)))
            [ (r i, r j); (r i, w j); (w i, r j); (w i, w j) ])
        ids)
    ids

(* ------------------------------------------------------------------ *)
(* The probe.                                                          *)

(* One cell [a] and a second cell [b]; an operation is a list of
   steps, each the touches it makes. *)
let script_factory ~n:_ =
  let a = Runtime.register_object (fun () -> 0) in
  let b = Runtime.register_object (fun () -> 0) in
  let obj = function `A -> a | `B -> b in
  fun ~proc:_ steps ->
    List.iter
      (fun touches ->
        Runtime.atomic (fun () ->
            List.iter (fun (o, write) -> Runtime.touch ~obj:(obj o) ~write) touches))
      steps

let test_fresh_probe () =
  let probe = Runtime.make_probe () in
  check_int "no step" 0 (Runtime.probe_steps probe);
  check_bool "the empty footprint" true
    (Runtime.probe_last_observed probe = Runtime.of_accesses [])

let test_probe_counts_steps () =
  let probe = Runtime.make_probe () in
  Runner.Cursor.with_ ~n:2 ~factory:script_factory ~probe (fun c ->
      let apply d = Runner.Cursor.apply c d in
      apply (Driver.Invoke (1, [ [ (`A, true) ]; [ (`B, false) ]; [] ]));
      check_int "an invocation is no step" 0 (Runtime.probe_steps probe);
      apply (Driver.Schedule 1);
      check_int "a grant is one step" 1 (Runtime.probe_steps probe);
      check_bool "the first step wrote a" true
        (Runtime.probe_last_observed probe = Runtime.of_accesses [ w 1 ]);
      apply (Driver.Schedule 1);
      check_bool "the second step read b, and only b" true
        (Runtime.probe_last_observed probe = Runtime.of_accesses [ r 2 ]);
      apply (Driver.Crash 1);
      apply (Driver.Invoke (2, []));
      check_int "neither a crash nor a stepless operation is a step" 2
        (Runtime.probe_steps probe);
      check_bool "the last observation stands" true
        (Runtime.probe_last_observed probe = Runtime.of_accesses [ r 2 ]))

let test_stepless_touches_nothing () =
  let probe = Runtime.make_probe () in
  Runner.Cursor.with_ ~n:1 ~factory:script_factory ~probe (fun c ->
      Runner.Cursor.apply c (Driver.Invoke (1, [ [ (`A, true); (`B, true) ]; [] ]));
      Runner.Cursor.apply c (Driver.Schedule 1);
      Runner.Cursor.apply c (Driver.Schedule 1);
      check_int "two steps" 2 (Runtime.probe_steps probe);
      check_bool "a step that touches nothing observes nothing" true
        (Runtime.probe_last_observed probe = Runtime.of_accesses []))

let test_prefix_not_probed () =
  let probe = Runtime.make_probe () in
  let op = [ [ (`A, true) ]; [ (`B, true) ] ] in
  Runner.Cursor.with_ ~n:1 ~factory:script_factory ~probe
    ~prefix:[ Driver.Invoke (1, op); Driver.Schedule 1 ]
    (fun c ->
      check_int "the prefix's step is not counted" 0 (Runtime.probe_steps probe);
      Runner.Cursor.apply c (Driver.Schedule 1);
      check_int "an applied step is" 1 (Runtime.probe_steps probe);
      check_bool "and observed" true
        (Runtime.probe_last_observed probe = Runtime.of_accesses [ w 2 ]))

let test_observed_step () =
  check_bool "with no probe: opaque" true (Dpor.observed_step None = Runtime.opaque);
  let probe = Runtime.make_probe () in
  Runner.Cursor.with_ ~n:1 ~factory:script_factory ~probe (fun c ->
      Runner.Cursor.apply c (Driver.Invoke (1, [ [ (`B, true); (`A, false) ] ]));
      Runner.Cursor.apply c (Driver.Schedule 1);
      check_bool "with a probe: its last observation" true
        (Dpor.observed_step (Some probe) = Runtime.of_accesses [ r 1; w 2 ]))

(* A keyless cursor, as a walk with no table runs, observes the same
   footprints as a keyed one. *)
let test_keyless_observes_alike () =
  let observe keyed =
    let probe = Runtime.make_probe () in
    Runner.Cursor.with_ ~n:2 ~factory:script_factory ~probe ~keyed (fun c ->
        Runner.Cursor.apply c
          (Driver.Invoke (1, [ [ (`A, false); (`B, true) ]; [ (`A, true) ] ]));
        Runner.Cursor.apply c (Driver.Invoke (2, [ [ (`B, false) ] ]));
        List.map
          (fun p ->
            Runner.Cursor.apply c (Driver.Schedule p);
            print_footprint (Runtime.probe_last_observed probe))
          [ 1; 2; 1 ])
  in
  Alcotest.(check (list string)) "the keyed cursor's footprints"
    [ "[R1;W2]"; "[R2]"; "[W1]" ] (observe true);
  Alcotest.(check (list string)) "the keyless cursor's" (observe true)
    (observe false)

(* A probe installed by an inner [with_registry] is uninstalled when
   its body raises, so later steps go to the outer probe again. *)
let test_with_registry_restores_probe () =
  let outer = Runtime.make_probe () and inner = Runtime.make_probe () in
  let reg = Runtime.fresh_registry () in
  Runtime.with_registry ~probe:outer reg (fun () ->
      (try Runtime.with_registry ~probe:inner reg (fun () -> raise Exit)
       with Exit -> ());
      Runner.Cursor.with_ ~n:1 ~factory:script_factory (fun c ->
          Runner.Cursor.apply c (Driver.Invoke (1, [ [ (`A, true) ] ]));
          Runner.Cursor.apply c (Driver.Schedule 1)));
  check_int "the outer probe saw the step" 1 (Runtime.probe_steps outer);
  check_int "the inner one did not" 0 (Runtime.probe_steps inner)

(* ------------------------------------------------------------------ *)
(* Objects built between steps: a one-shot round or a universal log    *)
(* slot is built by the first process to need it, so its first step   *)
(* already touches the new object, and no step touches a table.        *)

(* The footprints of [p]'s next [k] steps. *)
let next_steps c probe p k =
  List.init k (fun _ ->
      Runner.Cursor.apply c (Driver.Schedule p);
      print_footprint (Runtime.probe_last_observed probe))

(* The instance's block starts at id 1: the decision register, then
   round 0's phase-1 registers (ids 2 and 3 for n = 2). *)
let test_round_built_between_steps () =
  let factory ~n =
    let t = Slx_objects.One_shot_consensus.Registers.make ~n () in
    fun ~proc v -> Slx_objects.One_shot_consensus.Registers.propose t ~proc v
  in
  let probe = Runtime.make_probe () in
  Runner.Cursor.with_ ~n:2 ~factory ~probe (fun c ->
      Runner.Cursor.apply c (Driver.Invoke (1, 0));
      Runner.Cursor.apply c (Driver.Invoke (2, 1));
      Alcotest.(check (list string))
        "p1 reads the decision, then writes its round-0 preference"
        [ "[R1]"; "[W2]" ] (next_steps c probe 1 2);
      Alcotest.(check (list string))
        "p2 reads the decision, then writes into the same round"
        [ "[R1]"; "[W3]" ] (next_steps c probe 2 2))

(* Construction registers nothing, so slot 0's CAS takes id 1: p1's
   first step swaps it, and p2's first step, a failed CAS on the same
   object, only reads it. *)
let test_slot_built_between_steps () =
  let factory =
    Slx_objects.Universal.factory
      ~tp:(module Slx_objects.Stack_type.Self)
      ~consensus:`Cas ~max_ops:4 ()
  in
  let probe = Runtime.make_probe () in
  Runner.Cursor.with_ ~n:2 ~factory ~probe (fun c ->
      Runner.Cursor.apply c (Driver.Invoke (1, Slx_objects.Stack_type.Push 1));
      Runner.Cursor.apply c (Driver.Invoke (2, Slx_objects.Stack_type.Push 2));
      Alcotest.(check (list string))
        "p1 swaps slot 0's CAS" [ "[W1]" ] (next_steps c probe 1 1);
      Alcotest.(check (list string))
        "p2 fails on the same object" [ "[R1]" ] (next_steps c probe 2 1))

(* ------------------------------------------------------------------ *)
(* The sleep set's split across a decision.                            *)

let gen_sleep =
  QCheck2.Gen.(
    map
      (List.sort_uniq (fun (p, _) (q, _) -> compare p q))
      (list_size (int_range 0 4) (pair (int_range 1 6) gen_footprint)))

let print_sleep sleep =
  String.concat " "
    (List.map (fun (p, fp) -> Printf.sprintf "%d:%s" p (print_footprint fp)) sleep)

let prop_invoke_and_crash_wake_none =
  QCheck2.Test.make ~name:"an invocation or a crash wakes no sleeper" ~count:300
    ~print:(fun (s, p) -> print_sleep s ^ Printf.sprintf " p%d" p)
    QCheck2.Gen.(pair gen_sleep (int_range 1 6))
    (fun (sleep, p) ->
      List.for_all
        (fun d -> Dpor.advance ~observed:Runtime.opaque sleep d = (sleep, []))
        [ Driver.Invoke (p, ()); Driver.Crash p ])

let prop_advance_partitions =
  QCheck2.Test.make
    ~name:"a step splits the sleep set into commuting and racing sleepers"
    ~count:500
    ~print:(fun (s, o) -> print_sleep s ^ " / " ^ print_footprint o)
    QCheck2.Gen.(pair gen_sleep gen_footprint)
    (fun (sleep, observed) ->
      let stay, woken = Dpor.advance ~observed sleep (Driver.Schedule 7) in
      stay = List.filter (fun (_, fp) -> Runtime.commute observed fp) sleep
      && woken = List.filter (fun (_, fp) -> not (Runtime.commute observed fp)) sleep)

(* ------------------------------------------------------------------ *)
(* Walks that only the sleepers' observed footprints tell apart.  Two  *)
(* processes each issue one single-step operation on a register and a  *)
(* CAS; the trees have the same shape, so the DPOR walk explores as    *)
(* many runs for two steps that commute as for any other two that      *)
(* commute, and more for two that race.                                *)

type op = Write_a of int | Write_b of int | Read_a | Read_cas | Cas of int * int

let pair_factory () ~n:_ =
  let a = Slx_base_objects.Register.make 0 in
  let b = Slx_base_objects.Register.make 0 in
  let cas = Slx_base_objects.Cas.make 0 in
  fun ~proc:_ -> function
    | Write_a v ->
        Slx_base_objects.Register.write a v;
        0
    | Write_b v ->
        Slx_base_objects.Register.write b v;
        0
    | Read_a -> Slx_base_objects.Register.read a
    | Read_cas -> Slx_base_objects.Cas.read cas
    | Cas (expected, desired) ->
        if Slx_base_objects.Cas.compare_and_swap cas ~expected ~desired then 1
        else 0

(* Process 2 invokes only after process 1 has, so the order of the two
   steps is the only order the walk can vary: a step of process 2
   before one of process 1 is reached only by waking process 1. *)
let walk ?(check = fun _ -> true) ~dpor op1 op2 =
  Explore.explore ~n:2 ~factory:pair_factory
    ~invoke:(fun view p ->
      if view.Driver.invocations p > 0 then None
      else if p = 1 then Some op1
      else if view.Driver.invocations 1 > 0 then Some op2
      else None)
    ~depth:6 ~cache:false ~dpor ~check ()

let runs e =
  match e.Explore.outcome with
  | Explore.Ok runs -> runs
  | Explore.Counterexample _ -> Alcotest.fail "unexpected counterexample"

let test_commuting_pairs_explore_alike () =
  let independent = runs (walk ~dpor:true (Write_a 1) (Write_b 2)) in
  let racing = runs (walk ~dpor:true (Write_a 1) (Write_a 2)) in
  check_bool "two writes of one register race" true (independent < racing);
  check_bool "the unreduced walk explores more" true
    (independent < runs (walk ~dpor:false (Write_a 1) (Write_b 2)));
  check_int "a failed CAS and a read of its cell commute" independent
    (runs (walk ~dpor:true (Cas (5, 1)) Read_cas));
  check_int "a successful CAS races a read of its cell" racing
    (runs (walk ~dpor:true (Cas (0, 1)) Read_cas))

(* Process 1's CAS expects 1: run first, it fails and only reads;
   after process 2's CAS writes 1, it succeeds.  Asleep with the
   failed CAS's read, process 1 is woken by that write, so the DPOR
   walk reaches the success, as the unreduced walk does. *)
let test_failed_cas_woken_by_write () =
  let cas_failed report =
    Slx_history.History.responses_of report.Run_report.history 1 <> [ 1 ]
  in
  let script e = Option.map Explore.codes_of_script e.Explore.witness_script in
  let naive = walk ~dpor:false ~check:cas_failed (Cas (1, 2)) (Cas (0, 1)) in
  let dpor = walk ~dpor:true ~check:cas_failed (Cas (1, 2)) (Cas (0, 1)) in
  check_bool "the unreduced walk reaches the success" true (script naive <> None);
  check_bool "so does the DPOR walk, with the same least witness" true
    (script dpor = script naive);
  check_bool "a write elsewhere never makes it succeed" true
    ((walk ~dpor:true ~check:cas_failed (Cas (1, 2)) (Write_a 1))
       .Explore.witness_script = None)

(* Over drawn pairs of these operations, the DPOR walk reaches every
   pair of responses the unreduced walk reaches: a sleeper is never
   kept asleep past a step that would change what it returns.  CAS
   values range over 0..1 and CAS is drawn most often, so a failed CAS
   that the other step's write would make succeed is common. *)
let gen_op =
  QCheck2.Gen.(
    let v = int_range 0 2 and bit = int_range 0 1 in
    frequency
      [
        (1, map (fun x -> Write_a x) v);
        (1, map (fun x -> Write_b x) v);
        (1, pure Read_a);
        (1, pure Read_cas);
        (4, map2 (fun e d -> Cas (e, d)) bit bit);
      ])

let pp_op = function
  | Write_a v -> Printf.sprintf "a := %d" v
  | Write_b v -> Printf.sprintf "b := %d" v
  | Read_a -> "read a"
  | Read_cas -> "read cas"
  | Cas (e, d) -> Printf.sprintf "cas %d->%d" e d

let outcomes ~dpor op1 op2 =
  let seen = ref [] in
  let check report =
    let h = report.Run_report.history in
    seen :=
      ( Slx_history.History.responses_of h 1,
        Slx_history.History.responses_of h 2 )
      :: !seen;
    true
  in
  ignore (walk ~dpor ~check op1 op2);
  List.sort_uniq compare !seen

let prop_dpor_reaches_every_outcome =
  QCheck2.Test.make ~count:500
    ~name:"the DPOR walk reaches every outcome of the unreduced walk"
    ~print:(fun (a, b) -> pp_op a ^ " || " ^ pp_op b)
    QCheck2.Gen.(pair gen_op gen_op)
    (fun (op1, op2) -> outcomes ~dpor:true op1 op2 = outcomes ~dpor:false op1 op2)

(* ------------------------------------------------------------------ *)
(* The table walks, one reduction each: the instances stay safe and   *)
(* the table hits, so a crash child that ends its run is checked after *)
(* its table lookup.  Selfish consensus still breaks agreement under   *)
(* DPOR alone.                                                         *)

let test_table_walks () =
  let explore factory ~depth ~crashes ~dpor =
    Explore.explore ~n:2 ~factory ~invoke:Slx_serve.Queries.safety_invoke
      ~depth ~max_crashes:crashes ~dpor ~symmetry:(not dpor)
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
          check_bool (name ^ ": ok") true
            (match e.Explore.outcome with
            | Explore.Ok _ -> true
            | Explore.Counterexample _ -> false);
          check_bool (name ^ ": the table hits") true
            (e.Explore.stats.Explore_stats.cache_hits > 0))
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

let suites =
  [
    ( "footprint: algebra",
      [
        quick "opaque commutes with nothing" test_opaque;
        quick "the bit window's edges alias no id" test_window_edges;
      ]
      @ qcheck
          [
            prop_commute_symmetric;
            prop_commute_concat;
            prop_accesses_canonical;
            prop_accesses_round_trip;
            prop_order_and_repeats;
            prop_empty_commutes;
            prop_self_commute;
          ] );
    ( "footprint: probe",
      [
        quick "a fresh probe has observed nothing" test_fresh_probe;
        quick "a probe counts steps, not invocations or crashes"
          test_probe_counts_steps;
        quick "a step that touches nothing observes nothing"
          test_stepless_touches_nothing;
        quick "prefix steps are not probed" test_prefix_not_probed;
        quick "observed_step reads the probe, or is opaque without one"
          test_observed_step;
        quick "a keyless cursor observes what a keyed one does"
          test_keyless_observes_alike;
        quick "with_registry restores the probe it replaced"
          test_with_registry_restores_probe;
        quick "a one-shot round is built between steps"
          test_round_built_between_steps;
        quick "a universal slot is built between steps"
          test_slot_built_between_steps;
      ] );
    ( "footprint: sleepers",
      [
        quick "commuting pairs explore alike, racing pairs more"
          test_commuting_pairs_explore_alike;
        quick "a failed CAS asleep is woken by the write it races"
          test_failed_cas_woken_by_write;
        quick "the table walks are safe and hit the table" test_table_walks;
      ]
      @ qcheck
          [
            prop_invoke_and_crash_wake_none;
            prop_advance_partitions;
            prop_dpor_reaches_every_outcome;
          ] );
  ]
