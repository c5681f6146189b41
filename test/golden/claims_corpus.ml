(* The paper-claims ledger: one block per claim of the paper's
   theorems, corollaries, lemmas and figures, and of the extensions
   EXPERIMENTS.md records (E1-E20).  A block names its claim and paper
   reference, the shape the paper predicts, the engine or adversary and
   the budget that produced the verdict, what was measured, and whether
   the claim holds.  `dune runtest` diffs the output against
   claims.expected; the executable exits 1 when any claim FAILS, so a
   failing ledger cannot be promoted. *)

open Slx_history
open Slx_sim
open Slx_liveness
open Slx_core

let failed = ref false

(* The current experiment's id and paper reference, and how many
   claims it has printed. *)
let current = ref ("", "", 0)

let experiment id ref_ = current := (id, ref_, 0)

let check ?ref_ name ~paper ~bound ~measured ok =
  let id, default_ref, i = !current in
  current := (id, default_ref, i + 1);
  Printf.printf "%s.%d %s: %s\n" id (i + 1)
    (Option.value ref_ ~default:default_ref)
    name;
  Printf.printf "  paper:    %s\n" paper;
  Printf.printf "  bound:    %s\n" bound;
  Printf.printf "  measured: %s\n" measured;
  Printf.printf "  verdict:  %s\n\n" (if ok then "holds" else "FAILS");
  if not ok then failed := true

let ints l = String.concat " " (List.map string_of_int l)

let pp_points points =
  if points = [] then "(none)"
  else String.concat ", " (List.map (Format.asprintf "%a" Freedom.pp) points)

(* ------------------------------------------------------------------ *)
(* Sampled Figure 1 grids.                                             *)

type sampled =
  ?n:int -> ?max_steps:int -> ?seeds:int list -> unit -> Figure1.grid

(* A sampled grid and its bound line. *)
let sampled (build : sampled) ~adversary ~n ~max_steps ~seeds =
  let g = build ~n ~max_steps ~seeds () in
  ( g,
    Printf.sprintf
      "sampled games, n=%d: %s, %d steps; positive runs %d steps, seeds %s \
       (%d adversary, %d positive runs kept)"
      n adversary max_steps (max_steps / 2) (ints seeds)
      g.Figure1.adversary_runs g.Figure1.positive_runs )

let count color grid =
  List.length (List.filter (fun (_, c) -> c = color) grid.Figure1.cells)

let unique_strongest grid point =
  Freedom.unique (Figure1.strongest_not_excluded grid) = Some point

(* Every cell white where [white] holds and black elsewhere. *)
let split grid white =
  List.for_all
    (fun (p, c) ->
      c = if white p then Figure1.Not_excluded else Figure1.Excluded)
    grid.Figure1.cells

let lockstep_pair = "lockstep adversary on p1 p2"
let local_progress_pair = "Section 4.1 local-progress adversary on p1 p2"

(* ------------------------------------------------------------------ *)

let e1_figure_1a () =
  experiment "E1" "Figure 1a";
  let grid, bound =
    sampled Figure1.consensus ~adversary:lockstep_pair ~n:3 ~max_steps:1200
      ~seeds:[ 1; 2; 3 ]
  in
  let strongest = Figure1.strongest_not_excluded grid in
  let weakest = Figure1.weakest_excluded grid in
  check "white exactly at (1,1), black at every k >= 2"
    ~paper:"strongest implementable (1,1); weakest non-impl. (1,2)" ~bound
    ~measured:
      (Printf.sprintf "strongest %s; weakest %s" (pp_points strongest)
         (pp_points weakest))
    (Freedom.unique strongest = Some Freedom.obstruction_freedom
    && Freedom.unique weakest = Some (Freedom.make ~l:1 ~k:2));
  check "no Unknown cells" ~paper:"theorems leave no unclassified points"
    ~bound
    ~measured:(Printf.sprintf "%d unknowns" (count Figure1.Unknown grid))
    (count Figure1.Unknown grid = 0)

let e2_figure_1b () =
  experiment "E2" "Figure 1b";
  let grid, bound =
    sampled Figure1.tm ~adversary:local_progress_pair ~n:3 ~max_steps:900
      ~seeds:[ 1; 2; 3 ]
  in
  let strongest = Figure1.strongest_not_excluded grid in
  let weakest = Figure1.weakest_excluded grid in
  check "white exactly at the l = 1 row"
    ~paper:"strongest implementable (1,n); weakest non-impl. (2,2)" ~bound
    ~measured:
      (Printf.sprintf "strongest %s; weakest %s" (pp_points strongest)
         (pp_points weakest))
    (Freedom.unique strongest = Some (Freedom.lock_freedom ~n:3)
    && Freedom.unique weakest = Some (Freedom.make ~l:2 ~k:2))

let e3_gmax_consensus () =
  experiment "E3" "Corollary 4.5";
  let open Slx_consensus in
  let f1 = Consensus_adversary_sets.f1 ~v:0 ~v':1 in
  let f2 = Consensus_adversary_sets.f2 ~v:0 ~v':1 in
  let bound = "the paper's literal sets F1 and F2, n=2, v=0, v'=1" in
  check "F1, F2 are adversary sets w.r.t. wait-freedom and A&V"
    ~paper:"both inside S, both leave a correct proposer undecided" ~bound
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
    ~paper:"F1 starts with propose_1, F2 with propose_2: empty meet" ~bound
    ~measured:
      (Printf.sprintf "|F1|=%d |F2|=%d |F1 meet F2|=%d" (List.length f1)
         (List.length f2)
         (List.length
            (Gmax.intersect ~equal:Consensus_adversary_sets.equal_history
               (Gmax.make ~name:"F1" f1) (Gmax.make ~name:"F2" f2))))
    (Consensus_adversary_sets.disjoint f1 f2);
  (* The Theorem 4.4 micro model checker, both directions. *)
  let universe name inst =
    Printf.sprintf
      "%s micro-universe, %d candidate histories; brute force over every \
       subset"
      name
      (List.length inst.Theorem_4_4.universe)
  in
  let pos = Theorem_4_4.positive () and neg = Theorem_4_4.negative () in
  check ~ref_:"Theorem 4.4" "the Gmax criterion on the positive micro-universe"
    ~paper:"asymmetric S: Gmax is an adversary set, weakest exists"
    ~bound:(universe "1-process" pos)
    ~measured:
      (Printf.sprintf "|Gmax|=%d adversary-set=%b brute-force-agrees=%b"
         (List.length (Theorem_4_4.gmax pos))
         (Theorem_4_4.gmax_is_adversary_set pos)
         (Theorem_4_4.verify_by_enumeration pos))
    (Theorem_4_4.weakest_excluding_exists pos
    && Theorem_4_4.verify_by_enumeration pos);
  check ~ref_:"Theorem 4.4" "the Gmax criterion on the negative micro-universe"
    ~paper:"symmetric S: Gmax = {}, no weakest exists"
    ~bound:(universe "2-process" neg)
    ~measured:
      (Printf.sprintf "|Gmax|=%d adversary-set=%b brute-force-agrees=%b"
         (List.length (Theorem_4_4.gmax neg))
         (Theorem_4_4.gmax_is_adversary_set neg)
         (Theorem_4_4.verify_by_enumeration neg))
    ((not (Theorem_4_4.weakest_excluding_exists neg))
    && Theorem_4_4.verify_by_enumeration neg)

let e4_gmax_tm () =
  experiment "E4" "Corollary 4.6";
  let open Slx_tm in
  let r1 =
    Tm_adversary.run_local_progress ~factory:(I12.factory ~vars:1)
      ~max_steps:400 ()
  in
  let r2 =
    Tm_adversary.run_local_progress ~swap:true ~factory:(I12.factory ~vars:1)
      ~max_steps:400 ()
  in
  let bound =
    "Section 4.1 adversary and its swap vs I(1,2), 1 variable, n=2, 400 steps"
  in
  let first r = History.nth r.Run_report.history 0 in
  let pp_event =
    Event.pp ~pp_inv:Tm_type.pp_invocation ~pp_res:Tm_type.pp_response
  in
  check "the strategy and its swap produce disjoint history families"
    ~paper:"F1 histories start with start_1, F2 with start_2" ~bound
    ~measured:
      (Format.asprintf "F1 first event %a; F2 first event %a" pp_event
         (first r1) pp_event (first r2))
    (first r1 = Event.Invocation (1, Tm_type.Start)
    && first r2 = Event.Invocation (2, Tm_type.Start));
  let starved r p = List.assoc p (Tm_adversary.commits r.Run_report.history) = 0 in
  check "each adversary defeats local progress while opacity holds"
    ~paper:"one process never commits; history remains opaque" ~bound
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
  experiment "E5" "Theorem 4.9";
  let r = Theorem_4_9.run ~depth:5 in
  let bound = "automata It and Ib, histories to depth 5" in
  check "It and Ib ensure S; h and h' separate their fair sets"
    ~paper:
      "h = ping in fair(It)\\fair(Ib); h' = ping.ack.ping in fair(Ib)\\fair(It)"
    ~bound
    ~measured:
      (Printf.sprintf "ensure-S=%b h-separates=%b h'-separates=%b outside-Lmax=%b"
         r.Theorem_4_9.both_ensure_s r.Theorem_4_9.h_separates
         r.Theorem_4_9.h'_separates r.Theorem_4_9.h_outside_lmax)
    (Theorem_4_9.holds r);
  check "hence Lt and Lb are incomparable: no strongest exists"
    ~paper:"Lmax is the only candidate (Theorem 4.9)" ~bound
    ~measured:(Printf.sprintf "incomparable=%b" r.Theorem_4_9.incomparable)
    r.Theorem_4_9.incomparable;
  check ~ref_:"Lemma 4.8" "the strongest ensured liveness is Lmax + fair(A_I)"
    ~paper:"enumerated over every liveness property on the universe"
    ~bound:"every liveness property on the bounded universe, depths 5 and 7"
    ~measured:
      (Printf.sprintf "depth-5=%b depth-7=%b"
         (Theorem_4_9.lemma_4_8 ~depth:5)
         (Theorem_4_9.lemma_4_8 ~depth:7))
    (Theorem_4_9.lemma_4_8 ~depth:5 && Theorem_4_9.lemma_4_8 ~depth:7)

let e6_theorem_5_2 () =
  experiment "E6" "Theorem 5.2";
  let open Slx_consensus in
  let good = Consensus_type.good in
  let factory = Register_consensus.factory () in
  (* Positive: solo runs decide, over several victims/seeds. *)
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let solo_ok =
    List.for_all
      (fun seed ->
        let r =
          Runner.run ~n:2 ~factory
            ~driver:
              (Driver.with_crashes [ (0, 2) ]
                 (Driver.random ~procs:[ 1 ] ~seed
                    ~workload:Consensus_type.propose_forever
                    ()))
            ~max_steps:300 ()
        in
        Freedom.holds ~good r Freedom.obstruction_freedom
        && Consensus_safety.check r.Run_report.history)
      seeds
  in
  check "(1,1): solo runs decide and stay safe (5 seeds)"
    ~paper:"obstruction-free consensus from registers [20, 17]"
    ~bound:
      (Printf.sprintf
         "register consensus, n=2, p2 crashed at time 0, p1 random, 300 \
          steps, seeds %s"
         (ints seeds))
    ~measured:(Printf.sprintf "all-pass=%b" solo_ok)
    solo_ok;
  (* Negative: lockstep games across window sizes. *)
  let budgets = [ 400; 800; 1600; 3200 ] in
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
      budgets
  in
  check "(1,2): the lockstep adversary wins at every window"
    ~paper:"two proposers stay tied forever (CIL impossibility)"
    ~bound:
      (Printf.sprintf "exclusion game, register consensus, %s, n=2, %s steps"
         lockstep_pair (ints budgets))
    ~measured:(Printf.sprintf "adversary-wins-at-all-windows=%b" lockstep_ok)
    lockstep_ok

let e7_theorem_5_3 () =
  experiment "E7" "Theorem 5.3";
  let open Slx_tm in
  let seeds = [ 1; 2; 3; 4; 5 ] in
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
      seeds
  in
  check "(1,n): AGP is lock-free and opaque under contention (5 seeds)"
    ~paper:"(1,n)-freedom implementable with opacity [9]"
    ~bound:
      (Printf.sprintf
         "AGP, 1 variable, n=3, random schedules, 400 steps, seeds %s"
         (ints seeds))
    ~measured:(Printf.sprintf "all-pass=%b" lock_free_ok)
    lock_free_ok;
  let budgets = [ 300; 600; 1200 ] in
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
      budgets
  in
  check "(2,2): the Section 4.1 adversary wins at every window"
    ~paper:"biprogressing liveness impossible with opacity [4]"
    ~bound:
      (Printf.sprintf "%s vs AGP, 1 variable, n=2, %s steps"
         local_progress_pair (ints budgets))
    ~measured:(Printf.sprintf "adversary-wins-at-all-windows=%b" adversary_ok)
    adversary_ok

let e8_lemma_5_4 () =
  experiment "E8" "Lemma 5.4";
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
    ~paper:"opacity + the timestamp abort rule"
    ~bound:
      (Printf.sprintf
         "I(1,2), 2 variables, n=3, random schedules, 200 steps, seeds %s"
         (ints seeds))
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
    ~paper:"with <= 2 active the timestamp rule cannot fire"
    ~bound:
      (Printf.sprintf
         "I(1,2), 2 variables, n=3, p3 crashed at time 0, p1 p2 random, 400 \
          steps, seeds %s"
         (ints seeds))
    ~measured:(Printf.sprintf "all-pass=%b" live)
    live

let e9_counterexample () =
  experiment "E9" "Section 5.3";
  let grid, bound =
    sampled Figure1.s_prime
      ~adversary:(local_progress_pair ^ " and three-way adversary")
      ~n:3 ~max_steps:900 ~seeds:[ 1; 2 ]
  in
  let weakest = Figure1.weakest_excluded grid in
  check "two incomparable minimal excluders: (2,2) and (1,3)"
    ~paper:"(2,2) and (1,3) both exclude S'; (1,2) does not" ~bound
    ~measured:(Printf.sprintf "minimal blacks: %s" (pp_points weakest))
    (List.length weakest = 2
    && List.exists (Freedom.equal (Freedom.make ~l:2 ~k:2)) weakest
    && List.exists (Freedom.equal (Freedom.make ~l:1 ~k:3)) weakest
    && Freedom.unique weakest = None);
  check "strongest (l,k)-freedom implementable with S' is (1,2)"
    ~paper:"Algorithm I(1,2) implements it (Lemma 5.4)" ~bound
    ~measured:(pp_points (Figure1.strongest_not_excluded grid))
    (unique_strongest grid (Freedom.make ~l:1 ~k:2))

let e10_section_6 () =
  experiment "E10" "Section 6";
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
    ~paper:"strongest impl. (n,0); weakest non-impl. (n,1) [25]"
    ~bound:"every pair of (n,x)-liveness properties at n=3"
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
    ~paper:"no strongest implementable S-freedom [36]"
    ~bound:"every pair of singleton S-freedoms at n=3"
    ~measured:(Printf.sprintf "pairwise-incomparable=%b" pairwise_incomparable)
    pairwise_incomparable

let e11_ablation_timestamp_rule () =
  experiment "E11" "Algorithm 1 (ablation)";
  let open Slx_tm in
  let run factory = Tm_adversary.run_three_way ~factory ~max_steps:600 in
  let with_rule = run (I12.factory ~vars:1) in
  let without_rule = run (Agp_tm.factory ~vars:1) in
  let commits r =
    List.fold_left (fun acc (_, c) -> acc + c) 0
      (Tm_adversary.commits r.Run_report.history)
  in
  check "the timestamp rule is exactly what buys S' (and costs (1,3))"
    ~paper:"with rule: 0 commits, S' holds; without: commits, S' violated"
    ~bound:"three-way adversary vs I(1,2) and AGP, 1 variable, n=3, 600 steps"
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
  experiment "E12" "Theorem 5.2 (window ablation)";
  let open Slx_consensus in
  let good = Consensus_type.good in
  (* The lockstep exclusion verdict must not depend on the bounded-run
     parameters: sweep step budgets x window fractions. *)
  let budgets = [ 200; 600; 1800 ] in
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
            Fairness.is_bounded_fair report
            && Consensus_safety.check report.Run_report.history
            && not (Freedom.holds ~good report (Freedom.make ~l:1 ~k:2)))
          [ 1; 2; 3 ])
      budgets
  in
  check "lockstep wins at every budget x window combination"
    ~paper:"finitization artefacts absent (DESIGN.md section 5)"
    ~bound:
      (Printf.sprintf
         "%s vs register consensus, n=2, %s steps x windows 1/4 2/4 3/4 of \
          the budget"
         lockstep_pair (ints budgets))
    ~measured:
      (Printf.sprintf "%d/%d combinations agree"
         (List.length (List.filter Fun.id verdicts))
         (List.length verdicts))
    (List.for_all Fun.id verdicts)

let e13_mutex_starvation () =
  experiment "E13" "Section 3.2 (extension)";
  let open Slx_objects in
  let r = Mutex.run_starvation ~factory:(Mutex.tas_factory ()) ~max_steps:800 in
  let acq = Mutex.acquisitions r.Run_report.history in
  check "the TAS lock is deadlock-free but not starvation-free"
    ~paper:"Section 3.2: starvation-freedom is Lmax for locks"
    ~bound:"starvation scheduler vs the TAS lock, n=2, 800 steps"
    ~measured:
      (Printf.sprintf
         "p1 acquisitions=%d p2 acquisitions=%d mutual-exclusion=%b (2,2)=%b"
         (List.assoc 1 acq) (List.assoc 2 acq)
         (Mutex.mutual_exclusion r.Run_report.history)
         (Freedom.holds ~good:Mutex.good r (Freedom.make ~l:2 ~k:2)))
    (List.assoc 1 acq = 0
    && List.assoc 2 acq > 2
    && Mutex.mutual_exclusion r.Run_report.history
    && (not (Freedom.holds ~good:Mutex.good r (Freedom.make ~l:2 ~k:2)))
    && Freedom.holds ~good:Mutex.good r (Freedom.make ~l:1 ~k:2));
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
    ~paper:"starvation-freedom implementable for mutual exclusion"
    ~bound:
      "Bakery, n=3, round-robin lock workload, 1200 steps; starvation \
       scheduler, n=2, 800 steps"
    ~measured:
      (Printf.sprintf
         "fair run: all-acquire=%b; adversary run fair=%b (unfair = no witness)"
         (Freedom.holds ~good:Mutex.good fair_run (Freedom.wait_freedom ~n:3))
         (Fairness.is_bounded_fair bakery_starved))
    (Freedom.holds ~good:Mutex.good fair_run (Freedom.wait_freedom ~n:3)
    && Mutex.mutual_exclusion fair_run.Run_report.history
    && not
         (List.assoc 1 (Mutex.acquisitions bakery_starved.Run_report.history)
          = 0
         && Fairness.is_bounded_fair bakery_starved))

let e14_snapshot_substitution () =
  experiment "E14" "Lemma 5.4 (extension)";
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
    ~paper:"Afek et al. wait-free snapshot preserves S' and the adversary"
    ~bound:
      (Printf.sprintf
         "I(1,2) over the register-built snapshot, 2 variables, n=3: random \
          schedules, 250 steps, seeds %s; three-way adversary, 1500 steps"
         (ints seeds))
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
  experiment "E15" "Figure 1a (extension)";
  let open Slx_objects in
  let tp : _ Object_type.t = (module Counter_type) in
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
    && History.responses_of solo.Run_report.history 1 <> []
  in
  (* Negative: the lockstep schedule ties the first log slot forever. *)
  let lockstep : (Counter_type.invocation, Counter_type.response) Driver.t =
   fun view ->
    let next = if view.Driver.steps 1 <= view.Driver.steps 2 then 1 else 2 in
    match view.Driver.status next with
    | Runtime.Ready -> Driver.Schedule next
    | Runtime.Idle -> Driver.Invoke (next, Counter_type.Incr)
    | Runtime.Crashed -> Driver.Stop
  in
  let tied =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp ~consensus:`Registers ())
      ~driver:lockstep ~max_steps:1500 ()
  in
  let tied_ok =
    History.count Event.is_response tied.Run_report.history = 0
    && Fairness.is_bounded_fair tied
    && not (Freedom.holds ~good tied (Freedom.make ~l:1 ~k:2))
  in
  (* With CAS consensus the same schedule cannot stop the log. *)
  let cas =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp ~consensus:`Cas ())
      ~driver:lockstep ~max_steps:300 ()
  in
  let cas_ok = History.count Event.is_response cas.Run_report.history > 0 in
  check "any object from registers inherits Figure 1a"
    ~paper:"universal log = consensus per slot: (1,1) yes, (1,2) no"
    ~bound:
      "universal counter, n=2: register log, p1 solo, 600 steps; register \
       log, lockstep, 1500 steps; CAS log, lockstep, 300 steps"
    ~measured:
      (Printf.sprintf "solo-(1,1)=%b lockstep-ties=%b cas-advances=%b" solo_ok
         tied_ok cas_ok)
    (solo_ok && tied_ok && cas_ok)

let one_proposal = Slx_serve.Queries.safety_invoke

let consensus_safe = Slx_serve.Queries.check

let e16_exhaustive_verification () =
  experiment "E16" "Theorems 5.2, 5.3 (exhaustive safety)";
  let safe_runs e =
    match e.Explore.outcome with
    | Explore.Ok runs -> (true, runs)
    | Explore.Counterexample _ -> (false, 0)
  in
  let consensus_ok, consensus_runs =
    safe_runs
      (Explore.explore ~n:2
         ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
         ~invoke:one_proposal ~depth:10 ~max_crashes:1 ~check:consensus_safe ())
  in
  let register ?dpor ?symmetry () =
    fst
      (safe_runs
         (Explore.explore ~n:2
            ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
            ~invoke:one_proposal ~depth:10 ?dpor ?symmetry ~check:consensus_safe
            ()))
  in
  let reduced_ok = register ~dpor:true ~symmetry:true () && register () in
  let one_txn view p =
    let h = History.project view.Driver.history p in
    let has inv =
      History.count (fun e -> Event.invocation e = Some inv) h > 0
    in
    if not (has Slx_tm.Tm_type.Start) then Some Slx_tm.Tm_type.Start
    else if not (has Slx_tm.Tm_type.Try_commit) then
      Some Slx_tm.Tm_type.Try_commit
    else None
  in
  let tm_ok, tm_runs =
    safe_runs
      (Explore.explore ~n:2
         ~factory:(fun () -> Slx_tm.Agp_tm.factory ~vars:1)
         ~invoke:one_txn ~depth:10
         ~check:(fun r -> Slx_tm.Opacity.check_final r.Run_report.history)
         ())
  in
  check "safety holds on EVERY schedule, not just sampled ones"
    ~paper:"universal quantification on small instances"
    ~bound:
      "exhaustive, n=2, depth 10: CAS consensus, up to 1 crash; register \
       consensus, plain and DPOR+symmetry; AGP, one transaction each"
    ~measured:
      (Printf.sprintf
         "CAS consensus: %d schedules (with crashes) ok=%b; AGP: %d schedules ok=%b"
         consensus_runs consensus_ok tm_runs tm_ok)
    (consensus_ok && tm_ok && reduced_ok)

let e17_blocking_vs_non_blocking () =
  experiment "E17" "non-blocking footnote (extension)";
  let open Slx_tm in
  (* Crash p1 while it holds TL2's commit lock; run p2 solo after. *)
  let crash_holding_lock ~factory =
    let driver view =
      let open Driver in
      if Proc.Set.mem 1 (History.crashed view.history) then
        match view.status 2 with
        | Runtime.Ready -> Schedule 2
        | Runtime.Idle -> Invoke (2, Tm_workload.next_invocation view 2)
        | Runtime.Crashed -> Stop
      else
        let p1_tryc =
          History.count
            (fun e -> Event.invocation e = Some Tm_type.Try_commit)
            (History.project view.history 1)
          > 0
        in
        match view.status 1 with
        | Runtime.Idle -> Invoke (1, Tm_workload.next_invocation view 1)
        | Runtime.Ready ->
            if p1_tryc && view.steps 1 >= 4 then Crash 1 else Schedule 1
        | Runtime.Crashed -> Stop
    in
    Runner.run ~n:2 ~factory ~driver ~max_steps:400 ()
  in
  let tl2 = crash_holding_lock ~factory:(Tl2_tm.factory ()) in
  let agp = crash_holding_lock ~factory:(Agp_tm.factory ~vars:1) in
  let commits r p = List.assoc p (Tm_adversary.commits r.Run_report.history) in
  let obstruction_free r =
    Freedom.holds ~good:Tm_type.good r Freedom.obstruction_freedom
  in
  check "a dead lock holder wedges TL2 but not AGP"
    ~paper:"the paper's non-blocking footnote: crashes must not block others"
    ~bound:
      "TL2 and AGP (1 variable), n=2, p1 crashed holding the commit lock, \
       p2 solo, 400 steps"
    ~measured:
      (Printf.sprintf
         "TL2: p2 commits=%d (1,1)=%b; AGP: p2 commits=%d (1,1)=%b"
         (commits tl2 2) (obstruction_free tl2) (commits agp 2)
         (obstruction_free agp))
    (commits tl2 2 = 0
    && (not (obstruction_free tl2))
    && commits agp 2 > 0
    && obstruction_free agp)

let e18_consensus_number () =
  experiment "E18" "consensus number 2 (extension)";
  let factory () = Slx_consensus.Queue_consensus.factory () in
  let two_ok, two_runs =
    match
      (Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:10
         ~max_crashes:1
         ~check:(fun r ->
           consensus_safe r
           && (r.Run_report.total_time < 10
              || History.count Event.is_response r.Run_report.history > 0))
         ())
        .Explore.outcome
    with
    | Explore.Ok runs -> (true, runs)
    | Explore.Counterexample _ -> (false, 0)
  in
  let three_breaks =
    match
      (Explore.explore ~n:3 ~factory ~invoke:one_proposal ~depth:9
         ~check:consensus_safe ())
        .Explore.outcome
    with
    | Explore.Ok _ -> false
    | Explore.Counterexample _ -> true
  in
  check "wait-free for two processes, broken for three (Herlihy [19])"
    ~paper:"queues have consensus number exactly 2"
    ~bound:
      "exhaustive, queue consensus: n=2, depth 10, up to 1 crash; n=3, \
       depth 9"
    ~measured:
      (Printf.sprintf "n=2: %d schedules all safe+live=%b; n=3: violation found=%b"
         two_runs two_ok three_breaks)
    (two_ok && three_breaks)

let e19_mutex_grid () =
  experiment "E19" "Section 3.2 (extension)";
  let grid, bound =
    sampled Figure1.mutex ~adversary:"starvation scheduler on 2 processes"
      ~n:3 ~max_steps:1200 ~seeds:[ 1; 2; 3 ]
  in
  check "every (l,k) point is white for mutual exclusion"
    ~paper:"the lock Lmax (starvation-freedom) is implementable (Bakery)" ~bound
    ~measured:
      (Printf.sprintf "whites=%d blacks=%d unknowns=%d (of %d points)"
         (count Figure1.Not_excluded grid)
         (count Figure1.Excluded grid)
         (count Figure1.Unknown grid)
         (List.length grid.Figure1.cells))
    (count Figure1.Not_excluded grid = List.length grid.Figure1.cells)

let e20_fair_cycle_cross_validation () =
  experiment "E20" "Theorem 5.2 (cross-validation)";
  (* Leg 1: register consensus at n = 2, the Theorem 5.2 grid
     classified twice — by the sampled adversary games and by the
     exhaustive fair-cycle search — and compared cell by cell. *)
  let exhaustive = Slx_serve.Queries.consensus_exhaustive ~n:2 ~depth:10 () in
  let games = Figure1.consensus ~n:2 ~max_steps:1200 () in
  let agreements =
    List.map
      (fun (point, color) ->
        Figure1.color_at games ~l:(Freedom.l point) ~k:(Freedom.k point)
        = Some color)
      exhaustive.Figure1.cells
  in
  check "every game verdict confirmed by exhaustive search"
    ~paper:"Theorem 5.2 shape from both engines: white only at (1,1)"
    ~bound:
      (Printf.sprintf
         "fair-cycle search, register consensus, n=2, depth 10, up to 1 \
          crash; sampled games, n=2, %s, 1200 steps, seeds 1 2 3"
         lockstep_pair)
    ~measured:
      (Printf.sprintf "%d/%d grid points agree"
         (List.length (List.filter Fun.id agreements))
         (List.length agreements))
    (List.for_all Fun.id agreements
    && split exhaustive (Freedom.equal Freedom.obstruction_freedom));
  (* The acceptance witness in full: the (1,2) lasso at depth 8, and
     its absence for (1,1) under a solo window. *)
  let factory () = Slx_consensus.Register_consensus.factory ~max_rounds:16 () in
  let invoke = Slx_serve.Queries.live_invoke in
  let good = Slx_consensus.Consensus_type.good in
  let r12 =
    Live_explore.search ~n:2 ~factory ~invoke ~good
      ~point:(Freedom.make ~l:1 ~k:2) ~depth:8 ()
  in
  let name = "(1,2): fair non-progressing lasso found and pumps" in
  let paper = "Theorem 5.2, negative half: (1,2)-freedom excluded" in
  let bound =
    "fair-cycle search, register consensus (16 rounds), n=2, depth 8, no \
     crashes; certificate pumped 4 times"
  in
  (match r12.Live_explore.outcome with
  | Live_explore.Lasso c ->
      check name ~paper ~bound
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
      check name ~paper ~bound ~measured:"no lasso found" false);
  let r11 =
    Live_explore.search ~n:2 ~factory ~invoke ~good
      ~point:Freedom.obstruction_freedom ~depth:9 ~max_crashes:1 ()
  in
  check "(1,1): no fair cycle even with solo windows"
    ~paper:"Theorem 5.2, positive half: obstruction-freedom survives"
    ~bound:
      "fair-cycle search, register consensus (16 rounds), n=2, depth 9, up \
       to 1 crash"
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
  check ~ref_:"Corollary 4.6"
    "I12 vs local progress: adversary run certifies as a lasso"
    ~paper:"Corollary 4.6 witness is replayable and pumpable"
    ~bound:
      (Printf.sprintf
         "%s vs I(1,2), 1 variable, n=2, 400 steps, certified at (2,2); \
          certificate pumped 3 times"
         local_progress_pair)
    ~measured:
      (match ri12.Live_explore.outcome with
      | Live_explore.Lasso c ->
          Printf.sprintf "lasso, period %d ticks" (List.length c.Lasso.c_cycle)
      | Live_explore.No_fair_cycle -> "no certificate")
    (match ri12.Live_explore.outcome with
    | Live_explore.Lasso c ->
        Result.is_ok
          (Lasso.pump ~factory:(I12.factory ~vars:1) ~repetitions:3 c)
    | Live_explore.No_fair_cycle -> false)

let () =
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
  if !failed then exit 1
