(* Differential validation of the two central checkers: the memoized
   searches (linearizability, opacity) must agree with naive
   brute-force references on every small instance we can enumerate. *)

open Slx_history
open Slx_sim
open Support

(* ------------------------------------------------------------------ *)
(* Brute-force linearizability: try every permutation of operations.   *)

let permutations xs =
  let rec insert x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
        (x :: l) :: List.map (fun l' -> y :: l') (insert x rest)
  in
  List.fold_left
    (fun perms x -> List.concat_map (insert x) perms)
    [ [] ] xs

(* A permutation witnesses linearizability if it respects real time
   and replays legally; pending operations may be dropped (checked by
   trying all subsets of pending ops). *)
let brute_linearizable (h : (Register_type.invocation, Register_type.response) History.t) =
  let ops = Op.of_history h in
  let completed, pending = List.partition Op.is_complete ops in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let tails = subsets rest in
        List.map (fun s -> x :: s) tails @ tails
  in
  let respects_real_time order =
    let rec go = function
      | [] -> true
      | o :: rest ->
          List.for_all (fun o' -> not (Op.precedes o' o)) rest && go rest
    in
    go order
  in
  let legal order =
    let rec go st = function
      | [] -> true
      | op :: rest -> begin
          match Register_type.seq op.Op.inv st with
          | [ (st', res) ] -> begin
              match op.Op.res with
              | Some r -> r = res && go st' rest
              | None -> go st' rest
            end
          | _ -> false
        end
    in
    go Register_type.initial order
  in
  List.exists
    (fun chosen_pending ->
      List.exists
        (fun order -> respects_real_time order && legal order)
        (permutations (completed @ chosen_pending)))
    (subsets pending)

module Lin = Slx_safety.Linearizability.Make (Register_type)

let prop_lin_matches_brute_force =
  QCheck2.Test.make ~name:"linearizability search = brute force" ~count:120
    ~print:register_history_print
    (well_formed_register_history_gen ~n:3 ~len:8)
    (fun h ->
      (* keep the factorial reference feasible *)
      List.length (Op.of_history h) > 6
      || Lin.check h = brute_linearizable h)

(* ------------------------------------------------------------------ *)
(* Brute-force opacity: try every transaction permutation and every
   completion of commit-pending transactions.                          *)

open Slx_tm

let brute_opaque txns =
  let respects_real_time order =
    let rec go = function
      | [] -> true
      | t :: rest ->
          List.for_all (fun t' -> not (Transaction.precedes t' t)) rest
          && go rest
    in
    go order
  in
  (* completions: a bool per commit-pending transaction. *)
  let pending =
    List.filter
      (fun t -> t.Transaction.status = Transaction.Commit_pending)
      txns
  in
  let rec completion_choices = function
    | [] -> [ [] ]
    | t :: rest ->
        let tails = completion_choices rest in
        List.concat_map
          (fun tail -> [ (t, true) :: tail; (t, false) :: tail ])
          tails
  in
  let commits_under choice t =
    match t.Transaction.status with
    | Transaction.Committed -> true
    | Transaction.Aborted | Transaction.Live -> false
    | Transaction.Commit_pending -> List.assq t choice
  in
  let legal choice order =
    let read store x =
      Option.value (List.assoc_opt x store) ~default:Tm_type.initial_value
    in
    let rec go store = function
      | [] -> true
      | t :: rest ->
          let rec ops local = function
            | [] -> true
            | Transaction.Write_op (x, v) :: more -> ops ((x, v) :: local) more
            | Transaction.Read_op (x, v) :: more ->
                let expected =
                  match List.assoc_opt x local with
                  | Some w -> w
                  | None -> read store x
                in
                v = expected && ops local more
          in
          ops [] t.Transaction.ops
          &&
          let store' =
            if commits_under choice t then
              List.fold_left
                (fun acc (x, v) -> (x, v) :: List.remove_assoc x acc)
                store (Transaction.writes t)
            else store
          in
          go store' rest
    in
    go [] order
  in
  List.exists
    (fun choice ->
      List.exists
        (fun order -> respects_real_time order && legal choice order)
        (permutations txns))
    (completion_choices pending)

let prop_opacity_matches_brute_force =
  QCheck2.Test.make ~name:"opacity search = brute force" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      (* Short real runs of I(1,2) and, mutated, broken variants:
         randomly flip one response payload to explore the negative
         side too. *)
      let r =
        Runner.run ~n:2 ~factory:(I12.factory ~vars:2)
          ~driver:(Tm_workload.random ~seed ())
          ~max_steps:40 ()
      in
      let h = r.Run_report.history in
      let mutate h =
        (* Flip the value of the first read response, making the
           history likely non-opaque. *)
        let flipped = ref false in
        History.map
          ~inv:(fun i -> i)
          ~res:(fun res ->
            match res with
            | Tm_type.Val v when not !flipped ->
                flipped := true;
                Tm_type.Val (v + 100)
            | r -> r)
          h
      in
      let agree h =
        let txns = Transaction.of_history h in
        List.length txns > 6
        || Opacity.serializable txns = brute_opaque txns
      in
      agree h && agree (mutate h))

(* ------------------------------------------------------------------ *)
(* Differential validation of the exploration engines, through the
   crash-move map (test/oracle/crash_moves.ml): the naive reference
   crashes a process wherever a crash is enabled, the incremental
   explorer only at the canonical place, so the incremental explorer
   must visit exactly the image of naive's maximal runs under the map.
   The cache-off engine is compared script by script, in walk order,
   and on the final histories of the image's replays (collected
   through the check callback); cached engines never materialize
   pruned runs, so they are compared on the run count and the
   order-insensitive history digest of that image.  The reduced
   engines are compared with the image on verdicts, through checks
   that read only the per-process projections.                        *)

open Slx_core
module Crash_moves = Slx_test_oracle.Crash_moves

let hash_history r = Slx_sim.Runtime.hash_value r.Run_report.history

(* A history's per-process projections, processes 1..n. *)
let projections ~n h =
  List.map (fun p -> History.to_list (History.project h p)) (Proc.all ~n)

(* [rename h] is [h] with processes 1 and 2 exchanged, together with
   whatever the workload derives from a process id, so that a check
   rejecting both a history's projections and its renaming's is one
   symmetry may be used on. *)
let explorer_equivalence name ~factory ~invoke ~rename ~depth ~max_crashes =
  let n = 2 in
  let naive_runs =
    Crash_moves.naive_runs ~n ~factory ~invoke ~depth ~max_crashes
  in
  let image = Crash_moves.image naive_runs in
  (* An image run is a naive run in canonical form, and naive walks in
     menu order. *)
  check_bool
    (name ^ ": the image is naive's canonical-form runs")
    true
    (image = List.filter (fun s -> Crash_moves.canonical s = s) naive_runs);
  let image_histories =
    List.map
      (fun s -> (Crash_moves.replay ~n ~factory ~invoke s).Run_report.history)
      image
  in
  let image_hashes = List.map Slx_sim.Runtime.hash_value image_histories in
  let visited = ref [] in
  let nocache =
    Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~cache:false
      ~check:(fun r ->
        visited := (Crash_moves.script_of_report r, hash_history r) :: !visited;
        true)
      ()
  in
  (* Exactly the image, run by run, in menu order. *)
  check_bool
    (name ^ ": cache-off engine visits the image of naive's runs")
    true
    (List.rev !visited = List.combine image image_hashes);
  let runs e =
    match e.Explore.outcome with
    | Explore.Ok n -> n
    | Explore.Counterexample _ -> Alcotest.fail (name ^ ": unexpected violation")
  in
  let digest e = e.Explore.stats.Explore_stats.history_digest in
  let image_digest = List.fold_left ( + ) 0 image_hashes in
  check_int (name ^ ": cache-off run count") (List.length image) (runs nocache);
  check_bool (name ^ ": cache-off history digest") true
    (digest nocache = image_digest);
  (* The cached engine: count + digest. *)
  let check r = ignore (r : _ Run_report.t); true in
  let cached =
    Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~check ()
  in
  check_int (name ^ ": cached run count") (List.length image) (runs cached);
  check_bool (name ^ ": cached history digest") true
    (digest cached = image_digest);
  (* Reduced engines explore representatives only: the run count drops
     but each reduced configuration must be self-deterministic (same
     count and digest on a re-run), and must agree with the image on
     the verdict of every check that reads only the projections. *)
  let reduced_engines =
    [
      ("dpor", true, false);
      ("symmetry", false, true);
      ("dpor+symmetry", true, true);
    ]
  in
  (* Each candidate check rejects the projections of one history and of
     its renaming; the histories are every image run's own and its
     first half, which is mostly not maximal.  A reduced engine must
     answer [Counterexample] exactly when some image run has rejected
     projections, and its witness must be one. *)
  let image_tuples = List.map (projections ~n) image_histories in
  let candidates =
    List.concat_map
      (fun h -> [ h; History.prefix h (History.length h / 2) ])
      image_histories
    |> List.map (fun h -> [ projections ~n h; projections ~n (rename h) ])
    |> List.sort_uniq compare
  in
  let verdicts =
    List.mapi
      (fun i rejected ->
        let rejects h = List.mem (projections ~n h) rejected in
        let expected =
          List.exists (fun t -> List.mem t rejected) image_tuples
        in
        List.iter
          (fun (engine, dpor, symmetry) ->
            let label =
              Printf.sprintf "%s: %s on candidate check %d" name engine i
            in
            match
              (Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~dpor
                 ~symmetry
                 ~check:(fun r -> not (rejects r.Run_report.history))
                 ())
                .Explore.outcome
            with
            | Explore.Ok _ ->
                check_bool (label ^ ": ok exactly when the image passes")
                  false expected
            | Explore.Counterexample r ->
                check_bool
                  (label ^ ": a counterexample exactly when the image fails")
                  true expected;
                check_bool (label ^ ": the witness is rejected") true
                  (rejects r.Run_report.history))
          reduced_engines;
        expected)
      candidates
  in
  check_bool
    (name ^ ": the candidate checks reach both verdicts")
    true
    (List.mem true verdicts && List.mem false verdicts);
  List.iter
    (fun (engine, dpor, symmetry) ->
      let reduced () =
        Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~dpor
          ~symmetry ~check ()
      in
      let e = reduced () and e' = reduced () in
      check_bool
        (name ^ ": " ^ engine ^ " explores a nonempty subset of the runs")
        true
        (runs e >= 1 && runs e <= List.length image);
      check_int (name ^ ": " ^ engine ^ " is deterministic (count)") (runs e)
        (runs e');
      check_bool (name ^ ": " ^ engine ^ " is deterministic (digest)") true
        (digest e = digest e'))
    reduced_engines

let one_proposal = Slx_serve.Queries.safety_invoke

let one_txn view p =
  let h = History.project view.Driver.history p in
  let has inv =
    History.count (fun e -> Event.invocation e = Some inv) h > 0
  in
  if not (has Tm_type.Start) then Some Tm_type.Start
  else if not (has Tm_type.Try_commit) then Some Tm_type.Try_commit
  else None

(* Exchanging processes 1 and 2 exchanges their proposals, 0 and 1. *)
let rename_proposals h =
  let swap v = 1 - v in
  History.map
    ~inv:(fun (Slx_consensus.Consensus_type.Propose v) ->
      Slx_consensus.Consensus_type.Propose (swap v))
    ~res:(fun (Slx_consensus.Consensus_type.Decided v) ->
      Slx_consensus.Consensus_type.Decided (swap v))
    (History.rename (fun p -> 3 - p) h)

(* A transaction's operations do not depend on its process. *)
let rename_txns h = History.rename (fun p -> 3 - p) h

let test_explorers_agree_consensus () =
  explorer_equivalence "cas-consensus"
    ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
    ~invoke:one_proposal ~rename:rename_proposals ~depth:8 ~max_crashes:0

let test_explorers_agree_consensus_crashes () =
  explorer_equivalence "cas-consensus-crashes"
    ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
    ~invoke:one_proposal ~rename:rename_proposals ~depth:7 ~max_crashes:1

let test_explorers_agree_register_consensus () =
  explorer_equivalence "register-consensus"
    ~factory:(fun () -> Slx_consensus.Register_consensus.factory ())
    ~invoke:one_proposal ~rename:rename_proposals ~depth:8 ~max_crashes:0

let test_explorers_agree_tm () =
  explorer_equivalence "agp-tm"
    ~factory:(fun () -> Agp_tm.factory ~vars:1)
    ~invoke:one_txn ~rename:rename_txns ~depth:8 ~max_crashes:0

let test_explorers_agree_tm_crashes () =
  explorer_equivalence "agp-tm-crashes"
    ~factory:(fun () -> Agp_tm.factory ~vars:1)
    ~invoke:one_txn ~rename:rename_txns ~depth:6 ~max_crashes:1

(* Counterexample equivalence: on a violating instance (selfish
   consensus breaks agreement) every engine configuration — naive,
   cached or not, reduced or not — must
   report the byte-identical lexicographically-least witness script
   and failing history.  The selfish violation involves both
   processes' invocations, so no reduction can prune it away. *)
let test_explorers_agree_on_counterexample () =
  let factory () = Slx_consensus.Selfish_consensus.factory () in
  let check = Slx_serve.Queries.check in
  let witness e =
    match (e.Explore.outcome, e.Explore.witness_script) with
    | Explore.Counterexample r, Some script ->
        (script, Slx_sim.Runtime.hash_value r.Run_report.history)
    | _ -> Alcotest.fail "selfish consensus: expected a counterexample"
  in
  let reference =
    witness
      (Explore.explore_naive ~n:2 ~factory ~invoke:one_proposal ~depth:8
         ~check ())
  in
  List.iter
    (fun (engine, run) ->
      check_bool
        ("selfish counterexample: " ^ engine ^ " matches naive witness")
        true
        (witness (run ()) = reference))
    [
      ( "cached",
        fun () ->
          Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:8 ~check
            () );
      ( "cache-off",
        fun () ->
          Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:8
            ~cache:false ~check () );
      ( "dpor",
        fun () ->
          Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:8
            ~dpor:true ~check () );
      ( "symmetry",
        fun () ->
          Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:8
            ~symmetry:true ~check () );
      ( "dpor+symmetry",
        fun () ->
          Explore.explore ~n:2 ~factory ~invoke:one_proposal ~depth:8
            ~dpor:true ~symmetry:true ~check () );
    ]

(* ------------------------------------------------------------------ *)
(* Reduction coverage under crashes.  A reduced engine explores one
   representative per equivalence class, so it cannot be compared with
   the image of naive's runs (the crash-move map, above) on the run
   set.  It owes two things, both checked with DPOR on and the cache
   off (so every explored run reaches the check):
   - coverage: for every run of the image, it visits a run with the
     same per-process projections whose operation-precedence relation
     contains the image run's, so a check that is a function of the
     projections and monotone in precedence fails on the
     representative whenever it fails on the image run (the map moves
     only crash events, which changes neither);
   - least representatives: for every projection tuple, the first run
     its walk reaches with that tuple is the least image run with it,
     in menu order.  Sleep sets keep the least run of each commutation
     class, and the walk takes the menu in order, so any check that
     reads only the projections gets the least image witness.  This is
     what makes a missed wake-up visible: coverage alone holds even
     with no race reversal at all, since on a correct consensus
     implementation some sequential run contains every other run's
     precedence.
   Symmetry stays off: its representatives are renamings, and a
   renaming changes the projections these checks compare. *)

(* Operation-precedence pairs, each operation named by its process and
   its ordinal among that process's operations, sorted. *)
let precedence h =
  let seen = Hashtbl.create 8 in
  let named =
    List.map
      (fun o ->
        let k = Option.value (Hashtbl.find_opt seen o.Op.proc) ~default:0 in
        Hashtbl.replace seen o.Op.proc (k + 1);
        ((o.Op.proc, k), o))
      (Op.of_history h)
  in
  List.concat_map
    (fun (a, o) ->
      List.filter_map
        (fun (b, o') -> if Op.precedes o o' then Some (a, b) else None)
        named)
    named
  |> List.sort_uniq compare

let rec sorted_subset xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then sorted_subset xs' ys'
      else if c > 0 then sorted_subset xs ys'
      else false

(* The number of image runs no reduced run covers, and the number of
   projection tuples whose first reduced run is not the least image run
   with that tuple. *)
let reduction_gaps ~n ~factory ~invoke ~depth ~max_crashes =
  let first_by_proj runs =
    let first = Hashtbl.create 256 in
    List.iter
      (fun (script, h) ->
        let proj = projections ~n h in
        if not (Hashtbl.mem first proj) then Hashtbl.add first proj script)
      runs;
    first
  in
  let image =
    List.map
      (fun s ->
        (s, (Crash_moves.replay ~n ~factory ~invoke s).Run_report.history))
      (Crash_moves.image
         (Crash_moves.naive_runs ~n ~factory ~invoke ~depth ~max_crashes))
  in
  let reduced = ref [] in
  ignore
    (Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~cache:false
       ~dpor:true
       ~check:(fun r ->
         reduced :=
           (Crash_moves.script_of_report r, r.Run_report.history) :: !reduced;
         true)
       ());
  let reduced = List.rev !reduced in
  let by_proj = Hashtbl.create 1024 in
  List.iter
    (fun (_, h) -> Hashtbl.add by_proj (projections ~n h) (precedence h))
    reduced;
  let uncovered =
    List.length
      (List.filter
         (fun (_, h) ->
           not
             (List.exists
                (sorted_subset (precedence h))
                (Hashtbl.find_all by_proj (projections ~n h))))
         image)
  in
  let reduced_first = first_by_proj reduced in
  let first_differs =
    Hashtbl.fold
      (fun proj script differs ->
        if Hashtbl.find_opt reduced_first proj = Some script then differs
        else differs + 1)
      (first_by_proj image) 0
  in
  (uncovered, first_differs)

let two_proposals =
  Explore.workload_invoke
    (Driver.n_times 2 (fun p _ -> Slx_consensus.Consensus_type.Propose (p - 1)))

let test_reduction_covers_naive_under_crashes () =
  let consensus name factory invoke ~n ~depth ~max_crashes =
    ( Printf.sprintf "%s n=%d c=%d d=%d" name n max_crashes depth,
      fun () -> reduction_gaps ~n ~factory ~invoke ~depth ~max_crashes )
  in
  let tm name factory ~depth =
    ( Printf.sprintf "%s n=2 c=1 d=%d" name depth,
      fun () ->
        reduction_gaps ~n:2 ~factory ~invoke:one_txn ~depth ~max_crashes:1 )
  in
  let cas () = Slx_consensus.Cas_consensus.factory () in
  let register () = Slx_consensus.Register_consensus.factory () in
  List.iter
    (fun (name, run) ->
      let uncovered, first_differs = run () in
      check_int (name ^ ": uncovered image runs") 0 uncovered;
      check_int (name ^ ": projection tuples with another first run") 0
        first_differs)
    [
      consensus "cas" cas one_proposal ~n:2 ~depth:7 ~max_crashes:1;
      consensus "cas" cas one_proposal ~n:3 ~depth:8 ~max_crashes:2;
      consensus "cas, two proposals each" cas two_proposals ~n:2 ~depth:9
        ~max_crashes:2;
      consensus "register" register one_proposal ~n:2 ~depth:9 ~max_crashes:1;
      consensus "register" register one_proposal ~n:3 ~depth:8 ~max_crashes:1;
      tm "agp-tm" (fun () -> Agp_tm.factory ~vars:1) ~depth:7;
      tm "tl2-tm" Tl2_tm.factory ~depth:6;
    ]

(* Witnesses that need a crash wherever it falls: the check fails once
   some process has crashed and another has received a response, a
   property of the per-process projections alone. *)
let crashed_and_answered r =
  let h = r.Run_report.history in
  let crashed = History.crashed h in
  Proc.Set.is_empty crashed
  || not
       (List.exists
          (fun e -> Event.is_response e && not (Proc.Set.mem (Event.proc e) crashed))
          (History.to_list h))

(* Fails once two processes have crashed and a survivor decided a
   value one of them proposed.  A survivor can decide that value only
   if the proposer's write landed before its crash, so every failing
   run has a crash after a shared write, and its two crashes need the
   crash budget of 2, where a canonical leaf can keep a crash unspent.
   Also a function of the projections alone. *)
let survivor_decided_crashed_value r =
  let h = History.to_list r.Run_report.history in
  let crashed = History.crashed r.Run_report.history in
  let lost =
    List.filter_map
      (fun e ->
        match Event.invocation e with
        | Some (Slx_consensus.Consensus_type.Propose v)
          when Proc.Set.mem (Event.proc e) crashed ->
            Some v
        | _ -> None)
      h
  in
  Proc.Set.cardinal crashed < 2
  || not
       (List.exists
          (fun e ->
            match Event.response e with
            | Some (Slx_consensus.Consensus_type.Decided v) ->
                (not (Proc.Set.mem (Event.proc e) crashed)) && List.mem v lost
            | None -> false)
          h)

(* The least failing run of the image of naive's runs (the crash-move
   map) must come out of DPOR with the cache off and on.  Under symmetry only the verdict is compared: its
   witness is the least renaming, not the least run (both checks are
   invariant under renaming processes, as symmetry requires). *)
let test_crash_witnesses_agree () =
  List.iter
    (fun (label, check, impl, factory, n, max_crashes, depth) ->
      let name =
        Printf.sprintf "%s, %s n=%d c=%d d=%d" label impl n max_crashes depth
      in
      let witness e =
        match (e.Explore.outcome, e.Explore.witness_script) with
        | Explore.Counterexample r, Some script ->
            (Explore.codes_of_script script, hash_history r)
        | _ -> Alcotest.fail (name ^ ": expected a counterexample")
      in
      let explore ?cache ?symmetry () =
        Explore.explore ~n ~factory ~invoke:one_proposal ~depth ~max_crashes
          ?cache ?symmetry ~dpor:true ~check ()
      in
      let reference =
        match
          Crash_moves.least_failing ~n ~factory ~invoke:one_proposal ~depth
            ~max_crashes ~check
        with
        | Some s ->
            ( s,
              hash_history
                (Crash_moves.replay ~n ~factory ~invoke:one_proposal s) )
        | None -> Alcotest.fail (name ^ ": no failing image run")
      in
      check_int
        (name ^ ": crashes in the witness")
        max_crashes
        (List.length (List.filter (fun c -> c land 3 = 2) (fst reference)));
      List.iter
        (fun (engine, run) ->
          check_bool
            (name ^ ": " ^ engine ^ " matches the least image witness")
            true
            (witness (run ()) = reference))
        [
          ("dpor, cache off", fun () -> explore ~cache:false ());
          ("dpor, cache on", fun () -> explore ());
        ];
      check_bool
        (name ^ ": dpor+symmetry finds a counterexample too")
        true
        (match (explore ~symmetry:true ()).Explore.outcome with
        | Explore.Counterexample _ -> true
        | Explore.Ok _ -> false))
    (let cas () = Slx_consensus.Cas_consensus.factory () in
     let register () = Slx_consensus.Register_consensus.factory () in
     let answered = crashed_and_answered
     and decided = survivor_decided_crashed_value in
     [
       ("crashed and answered", answered, "cas", cas, 2, 1, 8);
       ("crashed and answered", answered, "cas", cas, 3, 1, 8);
       ("crashed and answered", answered, "register", register, 2, 1, 10);
       ("crashed and answered", answered, "register", register, 3, 1, 12);
       ("a survivor decided a crashed value", decided, "cas", cas, 3, 2, 8);
       ("a survivor decided a crashed value", decided, "cas", cas, 3, 2, 10);
     ])

(* The table rule: under DPOR plus symmetry the safety explorer builds
   no transposition table; with either reduction off it builds one,
   which still hits.  Either way the answer is that of the
   [~cache:false] walk: a hit credits exactly the subtree it skips.
   The pinned answers are those of the canonical crash placement. *)
let test_table_rule () =
  let consensus = Slx_serve.Queries.check in
  let cas () = Slx_consensus.Cas_consensus.factory () in
  let register () = Slx_consensus.Register_consensus.factory () in
  let explore ?cache ?(dpor = true) ?(symmetry = true) ?(check = consensus)
      factory n depth max_crashes =
    Explore.explore ~n ~factory ~invoke:one_proposal ~depth ~max_crashes
      ?cache ~dpor ~symmetry ~check ()
  in
  (* Everything a hit could disturb: the witness (or none), the run
     count and the digest of the histories credited. *)
  let answer (e : _ Explore.exploration) =
    Printf.sprintf "%s runs=%d digest=%d"
      (match e.Explore.witness_script with
      | None -> "ok"
      | Some w ->
          String.concat " " (List.map string_of_int (Explore.codes_of_script w)))
      e.Explore.stats.Explore_stats.runs
      e.Explore.stats.Explore_stats.history_digest
  in
  let same_as_no_cache name e no_cache =
    Alcotest.(check string)
      (name ^ ": = the ~cache:false walk")
      (answer no_cache) (answer e)
  in
  List.iter
    (fun (name, check, factory, n, depth, max_crashes, pinned) ->
      let run ?cache () = explore ?cache ~check factory n depth max_crashes in
      let e = run () in
      check_int (name ^ ": no table") 0
        e.Explore.stats.Explore_stats.cache_entries;
      Alcotest.(check string) (name ^ ": pinned answer") pinned (answer e);
      same_as_no_cache name e (run ~cache:false ()))
    (let answered = crashed_and_answered in
     [
       ( "register n=3 d14 c1", consensus, register, 3, 14, 1,
         "ok runs=922 digest=-2977105762022196378" );
       ( "register n=3 d14 c1, crashed and answered", answered, register, 3,
         14, 1,
         "5 4 4 4 4 4 4 4 4 4 4 9 8 10 runs=2 digest=-2731394087915856383"
       );
       ( "cas n=3 d12 c2", consensus, cas, 3, 12, 2,
         "ok runs=81 digest=2877844204319384413" );
       ( "cas n=3 d12 c2, crashed and answered", answered, cas, 3, 12, 2,
         "5 4 4 9 8 8 13 12 12 14 runs=1 digest=-4486760775570767643" );
       ( "cas n=4 d12 c1", consensus, cas, 4, 12, 1,
         "ok runs=83 digest=845786491339820320" );
       ( "cas n=4 d12 c1, crashed and answered", answered, cas, 4, 12, 1,
         "5 4 4 9 8 8 13 12 12 17 16 18 runs=2 digest=2250746343860034781" );
     ]);
  List.iter
    (fun (name, dpor, symmetry, n, depth, max_crashes, hits) ->
      let run ?cache () =
        explore ?cache ~dpor ~symmetry register n depth max_crashes
      in
      let e = run () in
      check_int (name ^ ": cache hits") hits
        e.Explore.stats.Explore_stats.cache_hits;
      same_as_no_cache name e (run ~cache:false ()))
    [
      ("register n=3 d12 c0, dpor alone", true, false, 3, 12, 0, 1073);
      ("register n=2 d14 c1, symmetry alone", false, true, 2, 14, 1, 281);
    ]

let suites =
  [
    ( "differential",
      qcheck [ prop_lin_matches_brute_force; prop_opacity_matches_brute_force ]
    );
    ( "differential-explore",
      [
        quick "consensus run set" test_explorers_agree_consensus;
        quick "consensus run set, crashes" test_explorers_agree_consensus_crashes;
        quick "register consensus run set" test_explorers_agree_register_consensus;
        quick "TM run set" test_explorers_agree_tm;
        quick "TM run set, crashes" test_explorers_agree_tm_crashes;
        quick "counterexample equivalence" test_explorers_agree_on_counterexample;
        quick "reduction covers naive under crashes"
          test_reduction_covers_naive_under_crashes;
        quick "crash witnesses agree" test_crash_witnesses_agree;
        quick "the table rule" test_table_rule;
      ] );
  ]
