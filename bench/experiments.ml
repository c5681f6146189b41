(* The per-experiment harness: one section per table/figure/theorem of
   the paper (DESIGN.md, Section 4).  Each section prints the paper's
   expected shape, the measured result, and a PASS/FAIL verdict;
   EXPERIMENTS.md records the same comparisons. *)

open Slx_history
open Slx_sim
open Slx_liveness
open Slx_core

let failures = ref 0

let check name ~expected ~measured ok =
  Printf.printf "  %-58s %s\n" name (if ok then "PASS" else "FAIL");
  Printf.printf "    paper:    %s\n" expected;
  Printf.printf "    measured: %s\n" measured;
  if not ok then incr failures

let section title = Printf.printf "\n== %s ==\n" title

let pp_points points =
  if points = [] then "(none)"
  else String.concat ", " (List.map (Format.asprintf "%a" Freedom.pp) points)

(* ------------------------------------------------------------------ *)

let e1_figure_1a () =
  section "E1. Figure 1a - (l,k) plane for consensus (agreement & validity)";
  let grid = Figure1.consensus ~n:3 () in
  print_string (Figure1.render grid);
  let strongest = Figure1.strongest_not_excluded grid in
  let weakest = Figure1.weakest_excluded grid in
  check "white exactly at (1,1), black at every k >= 2"
    ~expected:"strongest implementable (1,1); weakest non-impl. (1,2)"
    ~measured:
      (Printf.sprintf "strongest %s; weakest %s" (pp_points strongest)
         (pp_points weakest))
    (Freedom.unique strongest = Some Freedom.obstruction_freedom
    && Freedom.unique weakest = Some (Freedom.make ~l:1 ~k:2));
  check "no Unknown cells"
    ~expected:"theorems leave no unclassified points"
    ~measured:
      (Printf.sprintf "%d unknowns"
         (List.length
            (List.filter (fun (_, c) -> c = Figure1.Unknown) grid.Figure1.cells)))
    (List.for_all (fun (_, c) -> c <> Figure1.Unknown) grid.Figure1.cells)

let e2_figure_1b () =
  section "E2. Figure 1b - (l,k) plane for TM (opacity)";
  let grid = Figure1.tm ~n:3 () in
  print_string (Figure1.render grid);
  let strongest = Figure1.strongest_not_excluded grid in
  let weakest = Figure1.weakest_excluded grid in
  check "white exactly at the l = 1 row"
    ~expected:"strongest implementable (1,n); weakest non-impl. (2,2)"
    ~measured:
      (Printf.sprintf "strongest %s; weakest %s" (pp_points strongest)
         (pp_points weakest))
    (Freedom.unique strongest = Some (Freedom.lock_freedom ~n:3)
    && Freedom.unique weakest = Some (Freedom.make ~l:2 ~k:2))

let e3_gmax_consensus () =
  section "E3. Corollary 4.5 - Gmax = {} for consensus from registers";
  let open Slx_consensus in
  let f1 = Consensus_adversary_sets.f1 ~v:0 ~v':1 in
  let f2 = Consensus_adversary_sets.f2 ~v:0 ~v':1 in
  check "F1, F2 are adversary sets w.r.t. wait-freedom and A&V"
    ~expected:"both inside S, both leave a correct proposer undecided"
    ~measured:
      (Printf.sprintf "F1: safe=%b undecided=%b; F2: safe=%b undecided=%b"
         (Consensus_adversary_sets.all_safe f1)
         (Consensus_adversary_sets.all_incomplete f1)
         (Consensus_adversary_sets.all_safe f2)
         (Consensus_adversary_sets.all_incomplete f2))
    (Consensus_adversary_sets.all_safe f1
    && Consensus_adversary_sets.all_incomplete f1
    && Consensus_adversary_sets.all_safe f2
    && Consensus_adversary_sets.all_incomplete f2);
  check "F1 and F2 are disjoint, so Gmax = {}"
    ~expected:"F1 starts with propose_1, F2 with propose_2: empty meet"
    ~measured:
      (Printf.sprintf "|F1|=%d |F2|=%d |F1 meet F2|=%d" (List.length f1)
         (List.length f2)
         (List.length
            (Gmax.intersect ~equal:Consensus_adversary_sets.equal_history
               (Gmax.make ~name:"F1" f1) (Gmax.make ~name:"F2" f2))))
    (Consensus_adversary_sets.disjoint f1 f2);
  (* The Theorem 4.4 micro model checker, both directions. *)
  let pos = Theorem_4_4.positive () and neg = Theorem_4_4.negative () in
  check "Theorem 4.4 criterion on the positive micro-universe"
    ~expected:"asymmetric S: Gmax is an adversary set, weakest exists"
    ~measured:
      (Printf.sprintf "|Gmax|=%d adversary-set=%b brute-force-agrees=%b"
         (List.length (Theorem_4_4.gmax pos))
         (Theorem_4_4.gmax_is_adversary_set pos)
         (Theorem_4_4.verify_by_enumeration pos))
    (Theorem_4_4.weakest_excluding_exists pos
    && Theorem_4_4.verify_by_enumeration pos);
  check "Theorem 4.4 criterion on the negative micro-universe"
    ~expected:"symmetric S: Gmax = {}, no weakest exists"
    ~measured:
      (Printf.sprintf "|Gmax|=%d adversary-set=%b brute-force-agrees=%b"
         (List.length (Theorem_4_4.gmax neg))
         (Theorem_4_4.gmax_is_adversary_set neg)
         (Theorem_4_4.verify_by_enumeration neg))
    ((not (Theorem_4_4.weakest_excluding_exists neg))
    && Theorem_4_4.verify_by_enumeration neg)

let e4_gmax_tm () =
  section "E4. Corollary 4.6 - Gmax = {} for TM opacity";
  let open Slx_tm in
  let r1 =
    Tm_adversary.run_local_progress ~factory:(I12.factory ~vars:1)
      ~max_steps:400 ()
  in
  let r2 =
    Tm_adversary.run_local_progress ~swap:true ~factory:(I12.factory ~vars:1)
      ~max_steps:400 ()
  in
  let first r = History.nth r.Run_report.history 0 in
  check "the strategy and its swap produce disjoint history families"
    ~expected:"F1 histories start with start_1, F2 with start_2"
    ~measured:
      (Format.asprintf "F1 first event %a; F2 first event %a"
         (Slx_history.Event.pp ~pp_inv:Tm_type.pp_invocation
            ~pp_res:Tm_type.pp_response)
         (first r1)
         (Slx_history.Event.pp ~pp_inv:Tm_type.pp_invocation
            ~pp_res:Tm_type.pp_response)
         (first r2))
    (first r1 = Slx_history.Event.Invocation (1, Tm_type.Start)
    && first r2 = Slx_history.Event.Invocation (2, Tm_type.Start));
  let starved r p = List.assoc p (Tm_adversary.commits r.Run_report.history) = 0 in
  check "each adversary defeats local progress while opacity holds"
    ~expected:"one process never commits; history remains opaque"
    ~measured:
      (Printf.sprintf "F1: p1 starved=%b opaque=%b; F2: p2 starved=%b opaque=%b"
         (starved r1 1)
         (Opacity.check_final r1.Run_report.history)
         (starved r2 2)
         (Opacity.check_final r2.Run_report.history))
    (starved r1 1 && starved r2 2
    && Opacity.check_final r1.Run_report.history
    && Opacity.check_final r2.Run_report.history)

let e5_theorem_4_9 () =
  section "E5. Theorem 4.9 - no strongest liveness below Lmax (It/Ib)";
  let r = Theorem_4_9.run ~depth:5 in
  check "It and Ib ensure S; h and h' separate their fair sets"
    ~expected:
      "h = ping in fair(It)\\fair(Ib); h' = ping.ack.ping in fair(Ib)\\fair(It)"
    ~measured:
      (Printf.sprintf "ensure-S=%b h-separates=%b h'-separates=%b outside-Lmax=%b"
         r.Theorem_4_9.both_ensure_s r.Theorem_4_9.h_separates
         r.Theorem_4_9.h'_separates r.Theorem_4_9.h_outside_lmax)
    (Theorem_4_9.holds r);
  check "hence Lt and Lb are incomparable: no strongest exists"
    ~expected:"Lmax is the only candidate (Theorem 4.9)"
    ~measured:(Printf.sprintf "incomparable=%b" r.Theorem_4_9.incomparable)
    r.Theorem_4_9.incomparable;
  check "Lemma 4.8: strongest ensured liveness is Lmax + fair(A_I)"
    ~expected:"enumerated over every liveness property on the universe"
    ~measured:
      (Printf.sprintf "depth-5=%b depth-7=%b"
         (Theorem_4_9.lemma_4_8 ~depth:5)
         (Theorem_4_9.lemma_4_8 ~depth:7))
    (Theorem_4_9.lemma_4_8 ~depth:5 && Theorem_4_9.lemma_4_8 ~depth:7)

let e6_theorem_5_2 () =
  section "E6. Theorem 5.2 - consensus: (1,1) implementable, (1,2) not";
  let open Slx_consensus in
  let good (_ : Consensus_type.response) = true in
  let factory = Register_consensus.factory () in
  (* Positive: solo runs decide, over several victims/seeds. *)
  let solo_ok =
    List.for_all
      (fun seed ->
        let r =
          Runner.run ~n:2 ~factory
            ~driver:
              (Driver.with_crashes [ (0, 2) ]
                 (Driver.random ~procs:[ 1 ] ~seed
                    ~workload:
                      (Driver.forever (fun p -> Consensus_type.Propose (p - 1)))
                    ()))
            ~max_steps:300 ()
        in
        Freedom.holds ~good r Freedom.obstruction_freedom
        && Consensus_safety.check r.Run_report.history)
      [ 1; 2; 3; 4; 5 ]
  in
  check "(1,1): solo runs decide and stay safe (5 seeds)"
    ~expected:"obstruction-free consensus from registers [20, 17]"
    ~measured:(Printf.sprintf "all-pass=%b" solo_ok)
    solo_ok;
  (* Negative: lockstep games across window sizes. *)
  let lockstep_ok =
    List.for_all
      (fun max_steps ->
        let v =
          Exclusion.play ~n:2 ~factory
            ~adversary:(Consensus_adversary.lockstep ())
            ~safety:Consensus_safety.property
            ~liveness:(Live_property.of_freedom ~good (Freedom.make ~l:1 ~k:2))
            ~max_steps
        in
        Exclusion.adversary_wins v)
      [ 400; 800; 1600; 3200 ]
  in
  check "(1,2): the lockstep adversary wins at every window"
    ~expected:"two proposers stay tied forever (CIL impossibility)"
    ~measured:(Printf.sprintf "adversary-wins-at-all-windows=%b" lockstep_ok)
    lockstep_ok

let e7_theorem_5_3 () =
  section "E7. Theorem 5.3 - TM: (1,n) implementable, (2,2) not";
  let open Slx_tm in
  let lock_free_ok =
    List.for_all
      (fun seed ->
        let r =
          Runner.run ~n:3 ~factory:(Agp_tm.factory ~vars:1)
            ~driver:(Tm_workload.random ~seed ())
            ~max_steps:400 ()
        in
        Freedom.holds ~good:Tm_type.good r (Freedom.lock_freedom ~n:3)
        && Opacity.check_final r.Run_report.history)
      [ 1; 2; 3; 4; 5 ]
  in
  check "(1,n): AGP is lock-free and opaque under contention (5 seeds)"
    ~expected:"(1,n)-freedom implementable with opacity [9]"
    ~measured:(Printf.sprintf "all-pass=%b" lock_free_ok)
    lock_free_ok;
  let adversary_ok =
    List.for_all
      (fun max_steps ->
        let r =
          Tm_adversary.run_local_progress ~factory:(Agp_tm.factory ~vars:1)
            ~max_steps ()
        in
        Fairness.is_bounded_fair r
        && Opacity.check_final r.Run_report.history
        && not (Freedom.holds ~good:Tm_type.good r (Freedom.make ~l:2 ~k:2)))
      [ 300; 600; 1200 ]
  in
  check "(2,2): the Section 4.1 adversary wins at every window"
    ~expected:"biprogressing liveness impossible with opacity [4]"
    ~measured:(Printf.sprintf "adversary-wins-at-all-windows=%b" adversary_ok)
    adversary_ok

let e8_lemma_5_4 () =
  section "E8. Lemma 5.4 - I(1,2) ensures S' and (1,2)-freedom";
  let open Slx_tm in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let safe =
    List.for_all
      (fun seed ->
        let r =
          Runner.run ~n:3 ~factory:(I12.factory ~vars:2)
            ~driver:(Tm_workload.random ~seed ())
            ~max_steps:200 ()
        in
        S_prime.check_final r.Run_report.history)
      seeds
  in
  check "S' holds on random 3-process schedules (8 seeds)"
    ~expected:"opacity + the timestamp abort rule"
    ~measured:(Printf.sprintf "all-pass=%b" safe)
    safe;
  let live =
    List.for_all
      (fun seed ->
        let r =
          Runner.run ~n:3 ~factory:(I12.factory ~vars:2)
            ~driver:
              (Driver.with_crashes [ (0, 3) ]
                 (Tm_workload.random ~procs:[ 1; 2 ] ~seed ()))
            ~max_steps:400 ()
        in
        Freedom.holds ~good:Tm_type.good r (Freedom.make ~l:1 ~k:2))
      seeds
  in
  check "(1,2)-freedom holds when two processes run (8 seeds)"
    ~expected:"with <= 2 active the timestamp rule cannot fire"
    ~measured:(Printf.sprintf "all-pass=%b" live)
    live

let e9_counterexample () =
  section "E9. Section 5.3 - no weakest (l,k)-freedom excluding S'";
  let grid = Figure1.s_prime ~n:3 () in
  print_string (Figure1.render grid);
  let weakest = Figure1.weakest_excluded grid in
  check "two incomparable minimal excluders: (2,2) and (1,3)"
    ~expected:"(2,2) and (1,3) both exclude S'; (1,2) does not"
    ~measured:(Printf.sprintf "minimal blacks: %s" (pp_points weakest))
    (List.length weakest = 2
    && List.exists (Freedom.equal (Freedom.make ~l:2 ~k:2)) weakest
    && List.exists (Freedom.equal (Freedom.make ~l:1 ~k:3)) weakest
    && Freedom.unique weakest = None);
  check "strongest (l,k)-freedom implementable with S' is (1,2)"
    ~expected:"Algorithm I(1,2) implements it (Lemma 5.4)"
    ~measured:(pp_points (Figure1.strongest_not_excluded grid))
    (Freedom.unique (Figure1.strongest_not_excluded grid)
    = Some (Freedom.make ~l:1 ~k:2))

let e10_section_6 () =
  section "E10. Section 6 - alternative restricted liveness spaces";
  let nx = Alt.Nx_liveness.all ~n:3 in
  let total_order =
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            Alt.Nx_liveness.stronger_equal a b
            || Alt.Nx_liveness.stronger_equal b a)
          nx)
      nx
  in
  check "(n,x)-liveness is totally ordered"
    ~expected:"strongest impl. (n,0); weakest non-impl. (n,1) [25]"
    ~measured:(Printf.sprintf "total-order=%b over %d points" total_order (List.length nx))
    total_order;
  let singles = Alt.S_freedom.singletons ~n:3 in
  let pairwise_incomparable =
    List.for_all
      (fun a ->
        List.for_all
          (fun b -> a == b || not (Alt.S_freedom.comparable a b))
          singles)
      singles
  in
  check "singleton S-freedoms are pairwise incomparable"
    ~expected:"no strongest implementable S-freedom [36]"
    ~measured:(Printf.sprintf "pairwise-incomparable=%b" pairwise_incomparable)
    pairwise_incomparable


let e11_ablation_timestamp_rule () =
  section "E11. Ablation - Algorithm 1's timestamp rule (I(1,2) vs AGP)";
  let open Slx_tm in
  let run factory = Tm_adversary.run_three_way ~factory ~max_steps:600 in
  let with_rule = run (I12.factory ~vars:1) in
  let without_rule = run (Agp_tm.factory ~vars:1) in
  let commits r =
    List.fold_left (fun acc (_, c) -> acc + c) 0
      (Tm_adversary.commits r.Run_report.history)
  in
  check "the timestamp rule is exactly what buys S' (and costs (1,3))"
    ~expected:"with rule: 0 commits, S' holds; without: commits, S' violated"
    ~measured:
      (Printf.sprintf
         "I(1,2): %d commits, S'=%b; AGP: %d commits, rule-violated=%b"
         (commits with_rule)
         (S_prime.check_final with_rule.Run_report.history)
         (commits without_rule)
         (not (S_prime.timestamp_rule without_rule.Run_report.history)))
    (commits with_rule = 0
    && S_prime.check_final with_rule.Run_report.history
    && commits without_rule > 0
    && not (S_prime.timestamp_rule without_rule.Run_report.history))

let e12_window_sensitivity () =
  section "E12. Ablation - verdict stability across observation windows";
  let open Slx_consensus in
  let good (_ : Consensus_type.response) = true in
  (* The lockstep exclusion verdict must not depend on the bounded-run
     parameters: sweep step budgets x window fractions. *)
  let verdicts =
    List.concat_map
      (fun max_steps ->
        List.map
          (fun frac ->
            let window = max_steps * frac / 4 in
            let report =
              Runner.run ~n:2
                ~factory:(Register_consensus.factory ())
                ~driver:(Consensus_adversary.lockstep ())
                ~max_steps ~window ()
            in
            Slx_liveness.Fairness.is_bounded_fair report
            && Consensus_safety.check report.Run_report.history
            && not
                 (Slx_liveness.Freedom.holds ~good report
                    (Slx_liveness.Freedom.make ~l:1 ~k:2)))
          [ 1; 2; 3 ])
      [ 200; 600; 1800 ]
  in
  check "lockstep wins at every budget x window combination"
    ~expected:"finitization artefacts absent (DESIGN.md section 5)"
    ~measured:
      (Printf.sprintf "%d/%d combinations agree"
         (List.length (List.filter Fun.id verdicts))
         (List.length verdicts))
    (List.for_all Fun.id verdicts)

let e13_mutex_starvation () =
  section "E13. Extension - locks: starvation-freedom as the lock Lmax";
  let open Slx_objects in
  let r = Mutex.run_starvation ~factory:(Mutex.tas_factory ()) ~max_steps:800 in
  let acq = Mutex.acquisitions r.Run_report.history in
  check "the TAS lock is deadlock-free but not starvation-free"
    ~expected:"Section 3.2: starvation-freedom is Lmax for locks"
    ~measured:
      (Printf.sprintf
         "p1 acquisitions=%d p2 acquisitions=%d mutual-exclusion=%b (2,2)=%b"
         (List.assoc 1 acq) (List.assoc 2 acq)
         (Mutex.mutual_exclusion r.Run_report.history)
         (Slx_liveness.Freedom.holds ~good:Mutex.good r
            (Slx_liveness.Freedom.make ~l:2 ~k:2)))
    (List.assoc 1 acq = 0
    && List.assoc 2 acq > 2
    && Mutex.mutual_exclusion r.Run_report.history
    && not
         (Slx_liveness.Freedom.holds ~good:Mutex.good r
            (Slx_liveness.Freedom.make ~l:2 ~k:2))
    && Slx_liveness.Freedom.holds ~good:Mutex.good r
         (Slx_liveness.Freedom.make ~l:1 ~k:2));
  (* The counterpoint: Lamport's Bakery lock is starvation-free, so for
     mutual exclusion the lock Lmax does NOT exclude safety. *)
  let fair_run =
    Runner.run ~n:3 ~factory:(Bakery.factory ())
      ~driver:(Mutex.workload ())
      ~max_steps:1200 ()
  in
  let bakery_starved =
    Mutex.run_starvation ~factory:(Bakery.factory ()) ~max_steps:800
  in
  check "the Bakery lock implements the lock Lmax: no trade-off here"
    ~expected:"starvation-freedom implementable for mutual exclusion"
    ~measured:
      (Printf.sprintf
         "fair run: all-acquire=%b; adversary run fair=%b (unfair = no witness)"
         (Slx_liveness.Freedom.holds ~good:Mutex.good fair_run
            (Slx_liveness.Freedom.wait_freedom ~n:3))
         (Slx_liveness.Fairness.is_bounded_fair bakery_starved))
    (Slx_liveness.Freedom.holds ~good:Mutex.good fair_run
       (Slx_liveness.Freedom.wait_freedom ~n:3)
    && Mutex.mutual_exclusion fair_run.Run_report.history
    && not
         (List.assoc 1 (Mutex.acquisitions bakery_starved.Run_report.history)
          = 0
         && Slx_liveness.Fairness.is_bounded_fair bakery_starved))

let e14_snapshot_substitution () =
  section "E14. Substitution - Algorithm 1 over a register-built snapshot";
  let open Slx_tm in
  let seeds = [ 1; 2; 3 ] in
  let safe =
    List.for_all
      (fun seed ->
        let r =
          Runner.run ~n:3 ~factory:(I12_reg.factory ~vars:2)
            ~driver:(Tm_workload.random ~seed ())
            ~max_steps:250 ()
        in
        S_prime.check_final r.Run_report.history)
      seeds
  in
  let starved =
    let r =
      Tm_adversary.run_three_way ~factory:(I12_reg.factory ~vars:2)
        ~max_steps:1500
    in
    List.fold_left (fun acc (_, c) -> acc + c) 0
      (Tm_adversary.commits r.Run_report.history)
    = 0
  in
  check "Lemma 5.4 survives discharging the snapshot assumption"
    ~expected:"Afek et al. wait-free snapshot preserves S' and the adversary"
    ~measured:(Printf.sprintf "S'-on-random=%b three-way-starves=%b" safe starved)
    (safe && starved)


(* A tiny deterministic counter object for the universal-construction
   experiment. *)
module Counter_type = struct
  type state = int
  type invocation = Incr
  type response = Count of int

  let name = "counter"
  let initial = 0
  let seq Incr st = [ (st + 1, Count (st + 1)) ]
  let good (_ : response) = true
  let equal_state = Int.equal
  let equal_invocation (a : invocation) b = a = b
  let equal_response (a : response) b = a = b
  let pp_state = Format.pp_print_int
  let pp_invocation fmt Incr = Format.pp_print_string fmt "incr"
  let pp_response fmt (Count v) = Format.fprintf fmt "count(%d)" v
end

let e15_universal_construction () =
  section "E15. Extension - universal objects inherit the consensus grid";
  let open Slx_objects in
  let tp : _ Slx_history.Object_type.t = (module Counter_type) in
  let workload = Driver.forever (fun _ -> Counter_type.Incr) in
  let good (_ : Counter_type.response) = true in
  (* Positive: a solo process completes operations over the
     register-consensus log. *)
  let solo =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp ~consensus:`Registers ())
      ~driver:(Driver.with_crashes [ (0, 2) ] (Driver.solo 1 ~workload))
      ~max_steps:600 ()
  in
  let solo_ok =
    Freedom.holds ~good solo Freedom.obstruction_freedom
    && Slx_history.History.responses_of solo.Run_report.history 1 <> []
  in
  (* Negative: the lockstep schedule ties the first log slot forever. *)
  let lockstep : (Counter_type.invocation, Counter_type.response) Driver.t =
   fun view ->
    let next = if view.Driver.steps 1 <= view.Driver.steps 2 then 1 else 2 in
    match view.Driver.status next with
    | Slx_sim.Runtime.Ready -> Driver.Schedule next
    | Slx_sim.Runtime.Idle -> Driver.Invoke (next, Counter_type.Incr)
    | Slx_sim.Runtime.Crashed -> Driver.Stop
  in
  let tied =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp ~consensus:`Registers ())
      ~driver:lockstep ~max_steps:1500 ()
  in
  let tied_ok =
    Slx_history.History.count Slx_history.Event.is_response
      tied.Run_report.history
    = 0
    && Fairness.is_bounded_fair tied
    && not (Freedom.holds ~good tied (Freedom.make ~l:1 ~k:2))
  in
  (* With CAS consensus the same schedule cannot stop the log. *)
  let cas =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp ~consensus:`Cas ())
      ~driver:lockstep ~max_steps:300 ()
  in
  let cas_ok =
    Slx_history.History.count Slx_history.Event.is_response
      cas.Run_report.history
    > 0
  in
  check "any object from registers inherits Figure 1a"
    ~expected:"universal log = consensus per slot: (1,1) yes, (1,2) no"
    ~measured:
      (Printf.sprintf "solo-(1,1)=%b lockstep-ties=%b cas-advances=%b" solo_ok
         tied_ok cas_ok)
    (solo_ok && tied_ok && cas_ok)


let e16_exhaustive_verification () =
  section "E16. Exhaustive bounded verification (all schedules)";
  let one_proposal =
    Explore.workload_invoke
      (Driver.n_times 1 (fun p _ -> Slx_consensus.Consensus_type.Propose (p - 1)))
  in
  let consensus =
    Explore.explore ~n:2
      ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
      ~invoke:one_proposal ~depth:10 ~max_crashes:1
      ~check:(fun r ->
        Slx_consensus.Consensus_safety.check r.Run_report.history)
      ()
  in
  let consensus_ok, consensus_runs =
    match consensus.Explore.outcome with
    | Explore.Ok runs -> (true, runs)
    | Explore.Counterexample _ -> (false, 0)
  in
  let naive =
    Explore.explore_naive ~n:2
      ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
      ~invoke:one_proposal ~depth:10 ~max_crashes:1
      ~check:(fun r ->
        Slx_consensus.Consensus_safety.check r.Run_report.history)
      ()
  in
  Printf.printf
    "    engine: incremental %d steps vs naive %d steps (%.2fx); %d cache \
     hits, %d replays avoided\n"
    consensus.Explore.stats.Explore_stats.steps_executed
    naive.Explore.stats.Explore_stats.steps_executed
    (float_of_int naive.Explore.stats.Explore_stats.steps_executed
    /. float_of_int
         (max 1 consensus.Explore.stats.Explore_stats.steps_executed))
    consensus.Explore.stats.Explore_stats.cache_hits
    consensus.Explore.stats.Explore_stats.replays_avoided;
  let reduced =
    Explore.explore ~n:2
      ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
      ~invoke:one_proposal ~depth:10 ~dpor:true ~symmetry:true
      ~check:(fun r ->
        Slx_consensus.Consensus_safety.check r.Run_report.history)
      ()
  in
  let plain =
    Explore.explore ~n:2
      ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
      ~invoke:one_proposal ~depth:10
      ~check:(fun r ->
        Slx_consensus.Consensus_safety.check r.Run_report.history)
      ()
  in
  let reduced_ok =
    match (reduced.Explore.outcome, plain.Explore.outcome) with
    | Explore.Ok _, Explore.Ok _ -> true
    | _ -> false
  in
  Printf.printf
    "    reductions (register depth 10): plain %d steps vs DPOR+symmetry %d \
     steps (%.2fx); %d slept, %d pruned, %d of %d representative runs\n"
    plain.Explore.stats.Explore_stats.steps_executed
    reduced.Explore.stats.Explore_stats.steps_executed
    (float_of_int plain.Explore.stats.Explore_stats.steps_executed
    /. float_of_int (max 1 reduced.Explore.stats.Explore_stats.steps_executed))
    reduced.Explore.stats.Explore_stats.por_prunes
    reduced.Explore.stats.Explore_stats.symmetry_pruned
    reduced.Explore.stats.Explore_stats.runs
    plain.Explore.stats.Explore_stats.runs;
  let one_txn view p =
    let h = Slx_history.History.project view.Driver.history p in
    let has inv =
      Slx_history.History.count
        (fun e -> Slx_history.Event.invocation e = Some inv)
        h
      > 0
    in
    if not (has Slx_tm.Tm_type.Start) then Some Slx_tm.Tm_type.Start
    else if not (has Slx_tm.Tm_type.Try_commit) then
      Some Slx_tm.Tm_type.Try_commit
    else None
  in
  let tm_ok, tm_runs =
    match
      (Explore.explore ~n:2
         ~factory:(fun () -> Slx_tm.Agp_tm.factory ~vars:1)
         ~invoke:one_txn ~depth:10
         ~check:(fun r -> Slx_tm.Opacity.check_final r.Run_report.history)
         ())
        .Explore.outcome
    with
    | Explore.Ok runs -> (true, runs)
    | Explore.Counterexample _ -> (false, 0)
  in
  check "safety holds on EVERY schedule, not just sampled ones"
    ~expected:"universal quantification on small instances"
    ~measured:
      (Printf.sprintf
         "CAS consensus: %d schedules (with crashes) ok=%b; AGP: %d schedules ok=%b"
         consensus_runs consensus_ok tm_runs tm_ok)
    (consensus_ok && tm_ok && reduced_ok)

let e17_blocking_vs_non_blocking () =
  section "E17. Extension - blocking vs non-blocking TMs under crashes";
  let open Slx_tm in
  (* Crash p1 while it holds TL2's commit lock; run p2 solo after. *)
  let crash_holding_lock ~factory =
    let driver view =
      let open Driver in
      if Slx_history.Proc.Set.mem 1 (Slx_history.History.crashed view.history)
      then
        match view.status 2 with
        | Slx_sim.Runtime.Ready -> Schedule 2
        | Slx_sim.Runtime.Idle -> Invoke (2, Tm_workload.next_invocation view 2)
        | Slx_sim.Runtime.Crashed -> Stop
      else
        let p1_tryc =
          Slx_history.History.count
            (fun e ->
              Slx_history.Event.invocation e = Some Tm_type.Try_commit)
            (Slx_history.History.project view.history 1)
          > 0
        in
        match view.status 1 with
        | Slx_sim.Runtime.Idle -> Invoke (1, Tm_workload.next_invocation view 1)
        | Slx_sim.Runtime.Ready ->
            if p1_tryc && view.steps 1 >= 4 then Crash 1 else Schedule 1
        | Slx_sim.Runtime.Crashed -> Stop
    in
    Runner.run ~n:2 ~factory ~driver ~max_steps:400 ()
  in
  let tl2 = crash_holding_lock ~factory:(Tl2_tm.factory ()) in
  let agp = crash_holding_lock ~factory:(Agp_tm.factory ~vars:1) in
  let commits r p = List.assoc p (Tm_adversary.commits r.Run_report.history) in
  check "a dead lock holder wedges TL2 but not AGP"
    ~expected:"the paper's non-blocking footnote: crashes must not block others"
    ~measured:
      (Printf.sprintf
         "TL2: p2 commits=%d (1,1)=%b; AGP: p2 commits=%d (1,1)=%b"
         (commits tl2 2)
         (Freedom.holds ~good:Tm_type.good tl2 Freedom.obstruction_freedom)
         (commits agp 2)
         (Freedom.holds ~good:Tm_type.good agp Freedom.obstruction_freedom))
    (commits tl2 2 = 0
    && (not (Freedom.holds ~good:Tm_type.good tl2 Freedom.obstruction_freedom))
    && commits agp 2 > 0
    && Freedom.holds ~good:Tm_type.good agp Freedom.obstruction_freedom)


let e18_consensus_number () =
  section "E18. Extension - the consensus-number-2 boundary (queues)";
  let one_proposal =
    Explore.workload_invoke
      (Driver.n_times 1 (fun p _ -> Slx_consensus.Consensus_type.Propose (p - 1)))
  in
  let two_ok, two_runs =
    match
      (Explore.explore ~n:2
         ~factory:(fun () -> Slx_consensus.Queue_consensus.factory ())
         ~invoke:one_proposal ~depth:10 ~max_crashes:1
         ~check:(fun r ->
           Slx_consensus.Consensus_safety.check r.Run_report.history
           && (r.Run_report.total_time < 10
              || Slx_history.History.count Slx_history.Event.is_response
                   r.Run_report.history
                 > 0))
         ())
        .Explore.outcome
    with
    | Explore.Ok runs -> (true, runs)
    | Explore.Counterexample _ -> (false, 0)
  in
  let three_breaks =
    match
      (Explore.explore ~n:3
         ~factory:(fun () -> Slx_consensus.Queue_consensus.factory ())
         ~invoke:one_proposal ~depth:9
         ~check:(fun r ->
           Slx_consensus.Consensus_safety.check r.Run_report.history)
         ())
        .Explore.outcome
    with
    | Explore.Ok _ -> false
    | Explore.Counterexample _ -> true
  in
  check "wait-free for two processes, broken for three (Herlihy [19])"
    ~expected:"queues have consensus number exactly 2"
    ~measured:
      (Printf.sprintf "n=2: %d schedules all safe+live=%b; n=3: violation found=%b"
         two_runs two_ok three_breaks)
    (two_ok && three_breaks)


let e19_mutex_grid () =
  section "E19. Extension - the mutex grid: no trade-off anywhere";
  let grid = Figure1.mutex ~n:3 () in
  print_string (Figure1.render grid);
  check "every (l,k) point is white for mutual exclusion"
    ~expected:"the lock Lmax (starvation-freedom) is implementable (Bakery)"
    ~measured:
      (Printf.sprintf "whites=%d blacks=%d unknowns=%d (of %d points)"
         (List.length
            (List.filter (fun (_, c) -> c = Figure1.Not_excluded) grid.Figure1.cells))
         (List.length
            (List.filter (fun (_, c) -> c = Figure1.Excluded) grid.Figure1.cells))
         (List.length
            (List.filter (fun (_, c) -> c = Figure1.Unknown) grid.Figure1.cells))
         (List.length grid.Figure1.cells))
    (List.for_all (fun (_, c) -> c = Figure1.Not_excluded) grid.Figure1.cells)

let e20_fair_cycle_cross_validation () =
  section "E20. Fair-cycle search vs adversary games (cross-validation)";
  (* Leg 1: register consensus at n = 2, the Theorem 5.2 grid
     classified twice — by the sampled adversary games and by the
     exhaustive fair-cycle search — and compared cell by cell. *)
  let exhaustive = Figure1.consensus_exhaustive ~n:2 ~depth:10 () in
  let games = Figure1.consensus ~n:2 ~max_steps:1200 () in
  print_string (Figure1.render exhaustive);
  let color_name = function
    | Figure1.Not_excluded -> "not-excluded"
    | Figure1.Excluded -> "excluded"
    | Figure1.Unknown -> "unknown"
  in
  Printf.printf "  point  adversary games  fair-cycle search  agree\n";
  let agreements =
    List.map
      (fun (point, color) ->
        let l = Freedom.l point and k = Freedom.k point in
        let game =
          Option.value (Figure1.color_at games ~l ~k) ~default:Figure1.Unknown
        in
        let agree = game = color in
        Printf.printf "  (%d,%d)  %-16s %-18s %b\n" l k (color_name game)
          (color_name color) agree;
        agree)
      exhaustive.Figure1.cells
  in
  Printf.printf "  games  json: %s\n" (Figure1.to_json games);
  Printf.printf "  search json: %s\n" (Figure1.to_json exhaustive);
  check "every game verdict confirmed by exhaustive search"
    ~expected:"Theorem 5.2 shape from both engines: white only at (1,1)"
    ~measured:
      (Printf.sprintf "%d/%d grid points agree"
         (List.length (List.filter Fun.id agreements))
         (List.length agreements))
    (List.for_all Fun.id agreements);
  (* The acceptance witness in full: the (1,2) lasso at depth 8, and
     its absence for (1,1) under a solo window. *)
  let factory () = Slx_consensus.Register_consensus.factory ~max_rounds:16 () in
  let invoke =
    Explore.workload_invoke
      (Driver.forever (fun p -> Slx_consensus.Consensus_type.Propose (p - 1)))
  in
  let good (_ : Slx_consensus.Consensus_type.response) = true in
  let r12 =
    Live_explore.search ~n:2 ~factory ~invoke ~good
      ~point:(Freedom.make ~l:1 ~k:2) ~depth:8 ()
  in
  let pp_dec = function
    | Driver.Schedule p -> Printf.sprintf "S%d" p
    | Driver.Invoke (p, _) -> Printf.sprintf "I%d" p
    | Driver.Crash p -> Printf.sprintf "C%d" p
    | Driver.Stop -> "stop"
  in
  (match r12.Live_explore.outcome with
  | Live_explore.Lasso c ->
      Printf.printf "  (1,2) witness: stem [%s], cycle [%s]\n"
        (String.concat " " (List.map pp_dec c.Lasso.c_stem))
        (String.concat " " (List.map pp_dec c.Lasso.c_cycle));
      check "(1,2): fair non-progressing lasso found and pumps"
        ~expected:"Theorem 5.2, negative half: (1,2)-freedom excluded"
        ~measured:
          (Printf.sprintf "period %d, %d nodes, %d candidates"
             (List.length c.Lasso.c_cycle)
             r12.Live_explore.stats.Explore_stats.nodes
             r12.Live_explore.stats.Explore_stats.cycles_examined)
        (match Lasso.pump ~factory:(factory ()) ~repetitions:4 c with
        | Ok rep ->
            Lasso.certified_violation ~good rep (Freedom.make ~l:1 ~k:2)
        | Error _ -> false)
  | Live_explore.No_fair_cycle ->
      check "(1,2): fair non-progressing lasso found and pumps"
        ~expected:"Theorem 5.2, negative half: (1,2)-freedom excluded"
        ~measured:"no lasso found" false);
  let r11 =
    Live_explore.search ~n:2 ~factory ~invoke ~good
      ~point:Freedom.obstruction_freedom ~depth:9 ~max_crashes:1 ()
  in
  check "(1,1): no fair cycle even with solo windows"
    ~expected:"Theorem 5.2, positive half: obstruction-freedom survives"
    ~measured:
      (Printf.sprintf "%s after %d nodes / %d candidates"
         (match r11.Live_explore.outcome with
         | Live_explore.No_fair_cycle -> "no fair cycle"
         | Live_explore.Lasso _ -> "lasso (!)")
         r11.Live_explore.stats.Explore_stats.nodes
         r11.Live_explore.stats.Explore_stats.cycles_examined)
    (r11.Live_explore.outcome = Live_explore.No_fair_cycle);
  (* Leg 2: I12 vs local progress.  A fair transaction cycle spans
     tens of ticks, far past exhaustive reach, so the Section 4.1
     adversary's sampled win is promoted to the same certificate form
     by replay + pumping (doc/model.md section 7 records the
     asymmetry). *)
  let open Slx_tm in
  let ri12 =
    Live_explore.certify_run ~n:2
      ~factory:(fun () -> I12.factory ~vars:1)
      ~driver:(Tm_adversary.local_progress_adversary ())
      ~good:Tm_type.good
      ~point:(Freedom.wait_freedom ~n:2)
      ~max_steps:400 ()
  in
  check "I12 vs local progress: adversary run certifies as a lasso"
    ~expected:"Corollary 4.6 witness is replayable and pumpable"
    ~measured:
      (match ri12.Live_explore.outcome with
      | Live_explore.Lasso c ->
          Printf.sprintf "lasso, period %d ticks" (List.length c.Lasso.c_cycle)
      | Live_explore.No_fair_cycle -> "no certificate")
    (match ri12.Live_explore.outcome with
    | Live_explore.Lasso c -> (
        match
          Lasso.pump ~factory:(I12.factory ~vars:1) ~repetitions:3 c
        with
        | Ok _ -> true
        | Error _ -> false)
    | Live_explore.No_fair_cycle -> false)

let run () =
  Printf.printf "Safety-Liveness Exclusion - experiment suite\n";
  Printf.printf "(paper: Bushkov & Guerraoui, PODC 2015; see EXPERIMENTS.md)\n";
  e1_figure_1a ();
  e2_figure_1b ();
  e3_gmax_consensus ();
  e4_gmax_tm ();
  e5_theorem_4_9 ();
  e6_theorem_5_2 ();
  e7_theorem_5_3 ();
  e8_lemma_5_4 ();
  e9_counterexample ();
  e10_section_6 ();
  e11_ablation_timestamp_rule ();
  e12_window_sensitivity ();
  e13_mutex_starvation ();
  e14_snapshot_substitution ();
  e15_universal_construction ();
  e16_exhaustive_verification ();
  e17_blocking_vs_non_blocking ();
  e18_consensus_number ();
  e19_mutex_grid ();
  e20_fair_cycle_cross_validation ();
  Printf.printf "\n%s\n"
    (if !failures = 0 then "ALL EXPERIMENTS PASS"
     else Printf.sprintf "%d EXPERIMENT CHECKS FAILED" !failures);
  !failures = 0
