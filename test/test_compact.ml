(* The compact-encoding pass's own suite (ISSUE: hot-loop raw-speed
   pass): the hash-consing and bitmask machinery must be invisible —
   every verdict, witness script and lasso certificate byte-identical
   with the compact hot path on or off — and the bitstate mode must be
   honest about being lossy.

   Layers:
   - QCheck: interning preserves structural equality (the soundness
     argument for replacing key components with interned ids), and the
     conflict bitmasks agree with the footprint oracle everywhere,
     spill range included;
   - differential sweeps over the whole audit registry, safety and
     liveness legs, compact keys on vs off (mirroring
     test/test_dpor.ml's dpor-on-vs-off sweeps);
   - bitstate: an undersized table collides, prunes, reports its
     honest collision bound, and never invents a counterexample; the
     bits bounds raise;
   - the incremental shared-state digest always agrees with the
     from-scratch recomputation — including for the deliberately
     mis-declared fixtures, whose physical write-touches are honest
     even when their declarations lie. *)

open Slx_sim
open Slx_core
open Slx_liveness
open Support
module Audit = Slx_analysis.Audit
module Registry = Slx_analysis.Audit_registry

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
(* QCheck: interning preserves equality.                               *)

let qcheck_intern_preserves_equality =
  QCheck2.Test.make ~count:500
    ~name:"Intern.intern: equal ids iff equal values"
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (pair (int_range 0 5) (list_size (int_range 0 3) (int_range 0 5))))
    (fun values ->
      let pool = Intern.create () in
      let ids = List.map (fun v -> (v, Intern.intern pool v)) values in
      List.for_all
        (fun (v, i) ->
          List.for_all (fun (w, j) -> i = j = (v = w)) ids
          && Intern.intern pool v = i)
        ids)

let qcheck_intern_ints_preserves_equality =
  QCheck2.Test.make ~count:500
    ~name:"Intern.Ints.intern: equal ids iff equal arrays"
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (map Array.of_list (list_size (int_range 0 8) (int_range (-3) 3))))
    (fun arrays ->
      let pool = Intern.Ints.create () in
      let ids = List.map (fun a -> (a, Intern.Ints.intern pool a)) arrays in
      List.for_all
        (fun (a, i) ->
          List.for_all (fun (b, j) -> i = j = (a = b)) ids
          && Intern.Ints.intern pool a = i)
        ids)

(* ------------------------------------------------------------------ *)
(* QCheck: the conflict bitmasks agree with the footprint oracle.      *)
(* Object ids range beyond the 0..61 direct-bit window so the spill    *)
(* fallback is exercised too.                                          *)

let accesses_gen =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (map
         (fun (o, w) -> { Runtime.obj = o; write = w })
         (pair (oneof [ int_range 0 5; int_range 58 70 ]) bool)))

let qcheck_masks_commute_agree =
  QCheck2.Test.make ~count:1000
    ~name:"masks_commute . mask_of_footprint = footprints_commute"
    QCheck2.Gen.(pair accesses_gen accesses_gen)
    (fun (raw_a, raw_b) ->
      let a = Runtime.of_accesses raw_a and b = Runtime.of_accesses raw_b in
      Runtime.masks_commute (Runtime.mask_of_footprint a)
        (Runtime.mask_of_footprint b)
      = Runtime.footprints_commute a b)

let qcheck_wakes_mask_agree =
  QCheck2.Test.make ~count:1000
    ~name:"Dpor.wakes_mask agrees with Dpor.wakes"
    QCheck2.Gen.(pair accesses_gen (option accesses_gen))
    (fun (raw_obs, raw_pending) ->
      let observed = Runtime.of_accesses raw_obs in
      let pending = Option.map Runtime.of_accesses raw_pending in
      Dpor.wakes_mask
        ~observed:(Runtime.mask_of_footprint observed)
        ~pending:(Option.map Runtime.mask_of_footprint pending)
      = Dpor.wakes ~observed ~pending)

(* ------------------------------------------------------------------ *)
(* Safety leg: Explore with compact keys on vs off, over the whole     *)
(* audit registry — identical verdicts, counters and lex-least         *)
(* witness scripts.                                                    *)

let diff_explore_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 5 in
  let max_crashes = min c.Audit.c_max_crashes 1 in
  let run ~compact ~check =
    Explore.explore ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~depth ~max_crashes ~dpor:true ~compact ~check
      ()
  in
  let stats e = e.Explore.stats in
  let full = run ~compact:false ~check:(fun _ -> true) in
  let comp = run ~compact:true ~check:(fun _ -> true) in
  (match (full.Explore.outcome, comp.Explore.outcome) with
  | Explore.Ok a, Explore.Ok b ->
      check_int (c.Audit.c_name ^ ": identical runs checked") a b
  | _ ->
      Alcotest.failf "%s: always-true check produced a counterexample"
        c.Audit.c_name);
  check_int
    (c.Audit.c_name ^ ": identical steps")
    (stats full).Explore_stats.steps_executed
    (stats comp).Explore_stats.steps_executed;
  check_int
    (c.Audit.c_name ^ ": identical cache hits")
    (stats full).Explore_stats.cache_hits (stats comp).Explore_stats.cache_hits;
  check_bool
    (c.Audit.c_name ^ ": identical history digest")
    true
    ((stats full).Explore_stats.history_digest
    = (stats comp).Explore_stats.history_digest);
  let fullx = run ~compact:false ~check:(fun _ -> false) in
  let compx = run ~compact:true ~check:(fun _ -> false) in
  match (fullx.Explore.witness_script, compx.Explore.witness_script) with
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
(* Liveness leg: Live_explore with compact keys on vs off.             *)

let diff_live_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 7 in
  let run ~compact =
    Live_explore.search ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke
      ~good:(fun _ -> false)
      ~point:(Freedom.make ~l:1 ~k:1) ~depth ~dpor:true ~compact ()
  in
  let full = run ~compact:false in
  let comp = run ~compact:true in
  check_int
    (c.Audit.c_name ^ ": identical live nodes")
    full.Live_explore.stats.Explore_stats.nodes
    comp.Live_explore.stats.Explore_stats.nodes;
  match (full.Live_explore.outcome, comp.Live_explore.outcome) with
  | Live_explore.No_fair_cycle, Live_explore.No_fair_cycle -> ()
  | Live_explore.Lasso a, Live_explore.Lasso b ->
      Alcotest.(check string)
        (c.Audit.c_name ^ ": identical lasso stem")
        (show_script c.Audit.c_pp_inv a.Lasso.c_stem)
        (show_script c.Audit.c_pp_inv b.Lasso.c_stem);
      Alcotest.(check string)
        (c.Audit.c_name ^ ": identical lasso cycle")
        (show_script c.Audit.c_pp_inv a.Lasso.c_cycle)
        (show_script c.Audit.c_pp_inv b.Lasso.c_cycle);
      check_bool
        (c.Audit.c_name ^ ": identical certificate cells")
        true
        (a.Lasso.c_cells = b.Lasso.c_cells)
  | Live_explore.Lasso _, Live_explore.No_fair_cycle ->
      Alcotest.failf "%s: compact keys missed the lasso" c.Audit.c_name
  | Live_explore.No_fair_cycle, Live_explore.Lasso _ ->
      Alcotest.failf "%s: compact keys invented a lasso" c.Audit.c_name

let test_live_differential () = List.iter diff_live_case (Registry.all ())

(* The positive half: Theorem 5.2's own (1,2) lasso at depth 8 must be
   byte-identical with compact keys on or off, under the dpor
   reduction whose key carries sleepers and streaks. *)

let pp_consensus_inv (Slx_consensus.Consensus_type.Propose v) =
  "propose " ^ string_of_int v

let consensus_invoke =
  Explore.workload_invoke
    (Driver.forever (fun p -> Slx_consensus.Consensus_type.Propose (p - 1)))

let test_register_cert_identity () =
  let run ~compact =
    Live_explore.search ~n:2
      ~factory:(fun () ->
        Slx_consensus.Register_consensus.factory ~max_rounds:8 ())
      ~invoke:consensus_invoke
      ~good:(fun _ -> true)
      ~point:(Freedom.make ~l:1 ~k:2) ~depth:8 ~dpor:true ~compact ()
  in
  let cert name r =
    match r.Live_explore.outcome with
    | Live_explore.Lasso c -> c
    | Live_explore.No_fair_cycle ->
        Alcotest.failf "register (1,2) %s: expected a lasso" name
  in
  let b = cert "structural" (run ~compact:false) in
  let c = cert "compact" (run ~compact:true) in
  Alcotest.(check string)
    "identical stem"
    (show_script pp_consensus_inv b.Lasso.c_stem)
    (show_script pp_consensus_inv c.Lasso.c_stem);
  Alcotest.(check string)
    "identical cycle"
    (show_script pp_consensus_inv b.Lasso.c_cycle)
    (show_script pp_consensus_inv c.Lasso.c_cycle);
  check_bool "identical cells" true (b.Lasso.c_cells = c.Lasso.c_cells)

(* ------------------------------------------------------------------ *)
(* Bitstate: honesty of the lossy mode.                                *)

let one_proposal =
  Explore.workload_invoke
    (Driver.n_times 1 (fun p _ -> Slx_consensus.Consensus_type.Propose (p - 1)))

let register_explore ?bitstate () =
  Explore.explore ~n:2
    ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
    ~invoke:one_proposal ~depth:8 ?bitstate
    ~check:(fun _ -> true)
    ()

let test_bitstate_undersized_is_honest () =
  (* 2^4 = 16 slots for hundreds of states: the table saturates, false
     hits prune real work, and the stats must say so — positive hit
     count, near-certain reported collision probability — while the
     verdict stays Ok (one-sided: pruning can only lose coverage,
     never invent a violation). *)
  let exact = register_explore () in
  let lossy = register_explore ~bitstate:4 () in
  let runs e =
    match e.Explore.outcome with
    | Explore.Ok r -> r
    | Explore.Counterexample _ ->
        Alcotest.fail "register depth-8 must be safe"
  in
  let st = lossy.Explore.stats in
  check_int "stats record the table exponent" 4 st.Explore_stats.bitstate_bits;
  check_bool "the undersized table collides" true
    (st.Explore_stats.bitstate_hits > 0);
  check_bool "collisions prune runs" true (runs lossy < runs exact);
  let p = Explore_stats.bitstate_collision_probability st in
  check_bool "the reported collision probability is near-certain" true
    (p > 0.5);
  check_bool "occupancy is bounded by the table size" true
    (st.Explore_stats.bitstate_marks <= 16);
  (* The exact run reports no bitstate row at all. *)
  check_int "exact mode records no table"
    0 exact.Explore.stats.Explore_stats.bitstate_bits;
  check_bool "exact mode reports zero collision probability" true
    (Explore_stats.bitstate_collision_probability exact.Explore.stats = 0.0)

let test_bitstate_adequate_agrees () =
  (* A comfortably-sized table on the same instance: the Bloom bound
     is tiny and the verdict agrees with the exact exploration.  (The
     explored run sets still differ by design, collision-free or not:
     the bitstate marks a configuration at entry, so an ancestor
     recurrence on the DFS stack hits, while the exact cache stores
     only completed subtrees — digest identity is deliberately NOT
     claimed for this mode, which is why it is safety-only.) *)
  let exact = register_explore () in
  let big = register_explore ~bitstate:20 () in
  let st = big.Explore.stats in
  check_bool "reported probability is small" true
    (Explore_stats.bitstate_collision_probability st < 0.01);
  (match (exact.Explore.outcome, big.Explore.outcome) with
  | Explore.Ok _, Explore.Ok _ -> ()
  | _ -> Alcotest.fail "both modes must report safe");
  check_bool "an adequate table does not saturate" true
    (st.Explore_stats.bitstate_marks < 1 lsl 20)

let test_bitstate_bits_bounds () =
  List.iter
    (fun bits ->
      match register_explore ~bitstate:bits () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "bitstate %d must be rejected" bits)
    [ 3; 31 ]

(* ------------------------------------------------------------------ *)
(* The incremental shared-state digest agrees with the from-scratch    *)
(* recomputation after every decision — for an honest implementation   *)
(* and for the mis-declared fixtures (whose physical write-touches are *)
(* still attached to the owning cell).                                 *)

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

let test_incremental_digest_matches_full_on_fixture () =
  Runner.Cursor.with_ ~n:2 ~factory:Slx_analysis.Fixtures.leaky_factory
    (fun c ->
      let check_step i d =
        Runner.Cursor.apply c d;
        check_bool
          (Printf.sprintf "leaky fixture: digests agree after decision %d" i)
          true
          (Runner.Cursor.shared_digest c = Runner.Cursor.shared_digest_full c)
      in
      List.iteri check_step
        [
          Driver.Invoke (1, Slx_analysis.Fixtures.Poke 7);
          Driver.Schedule 1;
          Driver.Invoke (2, Slx_analysis.Fixtures.Peek);
          Driver.Schedule 2;
        ])

let suites =
  [
    ( "compact",
      [
        quick "explore differential over the audit registry"
          test_explore_differential;
        quick "live-explore differential over the audit registry"
          test_live_differential;
        quick "register (1,2) certificate is identical under compact keys"
          test_register_cert_identity;
        quick "an undersized bitstate table is honest about collisions"
          test_bitstate_undersized_is_honest;
        quick "an adequate bitstate table agrees with the exact search"
          test_bitstate_adequate_agrees;
        quick "bitstate bits outside 4..30 are rejected"
          test_bitstate_bits_bounds;
        quick "incremental shared digest = full recomputation"
          test_incremental_digest_matches_full;
        quick "incremental shared digest survives mis-declared fixtures"
          test_incremental_digest_matches_full_on_fixture;
      ]
      @ qcheck
          [
            qcheck_intern_preserves_equality;
            qcheck_intern_ints_preserves_equality;
            qcheck_masks_commute_agree;
            qcheck_wakes_mask_agree;
          ] );
  ]
