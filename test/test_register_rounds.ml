(* On-demand commit-adopt rounds in Register_consensus.  The factory
   used to build every round up front; it now builds round [r] the
   first time a process enters it, inside an id block reserved per
   instance.  The eager factory is kept here, verbatim, as the
   differential oracle: every explorer must see the same configuration
   graph through both (same verdicts, run sets, node and step counts,
   cache hits and lasso certificates). *)

open Slx_sim
open Slx_core
open Slx_consensus
open Support

(* ------------------------------------------------------------------ *)
(* The eager oracle.                                                   *)

module Eager = struct
  open Slx_base_objects

  type round = {
    a : int option Register.t array;
    b : (bool * int) option Register.t array;
  }

  let make_round n =
    {
      a = Array.init n (fun _ -> Register.make None);
      b = Array.init n (fun _ -> Register.make None);
    }

  type outcome = Commit of int | Adopt of int

  let commit_adopt round ~n ~i v =
    Register.write round.a.(i - 1) (Some v);
    let seen_a =
      List.filter_map
        (fun j -> Register.read round.a.(j))
        (List.init n (fun j -> j))
    in
    let phase1 =
      if List.for_all (Int.equal v) seen_a then (true, v) else (false, v)
    in
    Register.write round.b.(i - 1) (Some phase1);
    let seen_b =
      List.filter_map
        (fun j -> Register.read round.b.(j))
        (List.init n (fun j -> j))
    in
    let trues = List.filter fst seen_b in
    match trues with
    | (_, u) :: _ when List.for_all (fun (f, _) -> f) seen_b -> Commit u
    | (_, u) :: _ -> Adopt u
    | [] -> Adopt v

  let factory ?(max_rounds = 4096) () : _ Runner.factory =
   fun ~n ->
    let rounds = Array.init max_rounds (fun _ -> make_round n) in
    let decision = Register.make None in
    fun ~proc (Consensus_type.Propose v) ->
      let rec go r pref =
        if r >= max_rounds then
          failwith "Register_consensus: max_rounds exceeded"
        else
          match Register.read decision with
          | Some w -> Consensus_type.Decided w
          | None -> begin
              match commit_adopt rounds.(r) ~n ~i:proc pref with
              | Commit u ->
                  Register.write decision (Some u);
                  Consensus_type.Decided u
              | Adopt u -> go (r + 1) u
            end
      in
      go 0 v

  let grouped_factory ~k ?max_rounds () : _ Runner.factory =
   fun ~n ->
    let instances = Array.init k (fun _ -> factory ?max_rounds () ~n) in
    fun ~proc inv -> instances.(Kset.group_of ~k proc) ~proc inv
end

(* The eager oracle pays for every round it could reach, so it gets
   the old CLI's cap, sized to the depth; the lazy side runs at the
   default cap, which now costs nothing. *)
let eager_rounds depth = max 8 depth

(* ------------------------------------------------------------------ *)
(* Safety exploration.                                                 *)

let summary (e : _ Explore.exploration) =
  let s = e.Explore.stats in
  let verdict =
    match e.Explore.outcome with
    | Explore.Ok runs -> Printf.sprintf "ok %d" runs
    | Explore.Counterexample r ->
        Printf.sprintf "counterexample at %d" r.Run_report.total_time
  in
  Printf.sprintf
    "%s runs=%d nodes=%d steps_executed=%d steps_replayed=%d cache_hits=%d \
     history_digest=%d"
    verdict s.Explore_stats.runs s.nodes s.steps_executed s.steps_replayed
    s.cache_hits s.history_digest

type engine = { label : string; symmetry : bool; dpor : bool }

let engines =
  [
    { label = "incremental"; symmetry = false; dpor = false };
    { label = "dpor+symmetry"; symmetry = true; dpor = true };
    { label = "dpor"; symmetry = false; dpor = true };
  ]

let explore_with ~n ~depth ~max_crashes ~check e factory =
  Explore.explore ~n ~factory ~invoke:Slx_serve.Queries.safety_invoke ~depth
    ~max_crashes ~symmetry:e.symmetry ~dpor:e.dpor ~check ()

let same_exploration ~name ~n ~depth ~max_crashes ~check ~lazy_ ~eager =
  List.iter
    (fun e ->
      let label =
        Printf.sprintf "%s n=%d depth=%d crashes=%d %s" name n depth
          max_crashes e.label
      in
      let old = explore_with ~n ~depth ~max_crashes ~check e eager in
      let now = explore_with ~n ~depth ~max_crashes ~check e lazy_ in
      Alcotest.(check string) label (summary old) (summary now);
      check_bool (label ^ ": witness script") true
        (old.Explore.witness_script = now.Explore.witness_script))
    engines

let test_register_differential () =
  List.iter
    (fun (n, depth, max_crashes) ->
      same_exploration ~name:"register" ~n ~depth ~max_crashes
        ~check:Slx_serve.Queries.check
        ~lazy_:(fun () -> Register_consensus.factory ())
        ~eager:(fun () ->
          Eager.factory ~max_rounds:(eager_rounds depth) ()))
    [
      (2, 8, 0); (2, 8, 1); (2, 10, 0); (2, 12, 1); (2, 14, 0);
      (3, 8, 0); (3, 8, 1); (3, 10, 0); (3, 10, 2);
    ]

(* Two commit-adopt instances share one registry, so they build their
   rounds interleaved in schedule order.  Ids that depended on that
   order would split equal configurations across cache keys: this leg
   is the one a per-registry allocation counter fails. *)
let test_kset_differential () =
  List.iter
    (fun (depth, max_crashes) ->
      same_exploration ~name:"kset k=2" ~n:4 ~depth ~max_crashes
        ~check:(fun r -> Kset.check ~k:2 r.Run_report.history)
        ~lazy_:(fun () -> Kset.grouped_factory ~k:2 ())
        ~eager:(fun () ->
          Eager.grouped_factory ~k:2 ~max_rounds:(eager_rounds depth) ()))
    [ (8, 0); (10, 0); (8, 1) ]

(* ------------------------------------------------------------------ *)
(* Fair-cycle search.                                                  *)

let live_summary (r : _ Live_explore.result) =
  let s = r.Live_explore.stats in
  let verdict =
    match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> "no_fair_cycle"
    | Live_explore.Lasso c ->
        let codes script =
          String.concat " "
            (List.map string_of_int (Explore.codes_of_script script))
        in
        Printf.sprintf "lasso stem=[%s] cycle=[%s]"
          (codes c.Slx_liveness.Lasso.c_stem)
          (codes c.c_cycle)
  in
  Printf.sprintf
    "%s nodes=%d runs=%d steps_executed=%d steps_replayed=%d cache_hits=%d \
     cycles_examined=%d fair_cycles=%d"
    verdict s.Explore_stats.nodes s.runs s.steps_executed s.steps_replayed
    s.cache_hits s.cycles_examined s.fair_cycles

let test_live_differential () =
  List.iter
    (fun (l, k, depth, max_crashes) ->
      let point = Slx_liveness.Freedom.make ~l ~k in
      let search factory =
        Live_explore.search ~n:2 ~factory ~invoke:Slx_serve.Queries.live_invoke
          ~good:Consensus_type.good ~point ~depth ~max_crashes ()
      in
      let old =
        search (fun () -> Eager.factory ~max_rounds:(eager_rounds depth) ())
      in
      let now = search (fun () -> Register_consensus.factory ()) in
      Alcotest.(check string)
        (Printf.sprintf "live (%d,%d) depth=%d crashes=%d" l k depth
           max_crashes)
        (live_summary old) (live_summary now))
    [ (1, 1, 8, 1); (1, 1, 10, 1); (1, 2, 8, 0); (1, 2, 10, 1) ]

(* The CLI used to size live register instances at [max 8 depth]
   rounds, so validating a certificate by pumping it far past the
   search depth overran them and crashed. *)
let test_long_pump () =
  let out = Filename.temp_file "slx_pump" ".json" in
  let rc =
    Sys.command
      (Printf.sprintf
         "../bin/slx_cli.exe live-explore --impl register --property 1,2 \
          --depth 8 --pump 400 --json >%s 2>/dev/null"
         out)
  in
  let json = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  check_int "live-explore --pump 400 exits 0" 0 rc;
  check_bool "the (1,2) lasso survives a 400-tick pump" true
    (Test_live.contains json {|"outcome": "lasso"|})

(* ------------------------------------------------------------------ *)
(* Instance shape.                                                     *)

let registered ~n factory =
  let reg = Runtime.fresh_registry () in
  ignore (Runtime.with_registry reg (fun () -> factory () ~n));
  Runtime.registry_objects reg

let test_instance_is_small () =
  List.iter
    (fun n ->
      (* The decision register only: no round exists until entered. *)
      check_int
        (Printf.sprintf "objects of a fresh n=%d instance" n)
        1
        (registered ~n (fun () -> Register_consensus.factory ()));
      check_int
        (Printf.sprintf "max_rounds does not shape the n=%d instance" n)
        1
        (registered ~n (fun () -> Register_consensus.factory ~max_rounds:8 ())))
    [ 2; 3; 4 ];
  check_bool "the eager oracle did preallocate" true
    (registered ~n:2 (fun () -> Eager.factory ()) = 1 + (4096 * 2 * 2));
  check_int "store key independent of the cap"
    (Slx_store.Persist.instance_digest ~n:2 ~factory:(fun () ->
         Register_consensus.factory ()))
    (Slx_store.Persist.instance_digest ~n:2 ~factory:(fun () ->
         Register_consensus.factory ~max_rounds:8 ()))

(* A round is built when first entered, and built once. *)
let test_rounds_built_on_entry () =
  let reg = Runtime.fresh_registry () in
  let in_reg f = Runtime.with_registry reg f in
  let impl = in_reg (fun () -> Register_consensus.factory () ~n:2) in
  let cells = Array.init 3 (fun _ -> Runtime.make_cell ()) in
  let invoke p v =
    in_reg (fun () ->
        Runtime.spawn cells.(p) (fun () ->
            ignore (impl ~proc:p (Consensus_type.Propose v))))
  in
  let step p = in_reg (fun () -> Runtime.grant cells.(p)) in
  let objects () = Runtime.registry_objects reg in
  check_int "before any step" 1 (objects ());
  invoke 1 0;
  check_int "invoked, decision not yet read" 1 (objects ());
  step 1;
  check_int "round 0 entered" 5 (objects ());
  invoke 2 1;
  step 2;
  check_int "a second process enters round 0: no rebuild" 5 (objects ())

(* One_shot_consensus.Registers runs the same instance: its make
   registers only the decision register, and a round is built when
   first entered, once. *)
let test_one_shot_rounds_built_on_entry () =
  let module R = Slx_objects.One_shot_consensus.Registers in
  let reg = Runtime.fresh_registry () in
  let in_reg f = Runtime.with_registry reg f in
  let t = in_reg (fun () -> R.make ~n:2 ()) in
  let cells = Array.init 3 (fun _ -> Runtime.make_cell ()) in
  let invoke p v =
    in_reg (fun () ->
        Runtime.spawn cells.(p) (fun () -> ignore (R.propose t ~proc:p v)))
  in
  let step p = in_reg (fun () -> Runtime.grant cells.(p)) in
  let objects () = Runtime.registry_objects reg in
  check_int "a fresh instance" 1 (objects ());
  invoke 1 "a";
  step 1;
  check_int "round 0 entered" 5 (objects ());
  invoke 2 "b";
  step 2;
  check_int "a second process enters round 0: no rebuild" 5 (objects ())

(* [propose] rejects a process outside [1..n], and refuses to enter a
   round at the cap, before either takes a step. *)
let test_commit_adopt_rejects () =
  Runtime.with_registry (Runtime.fresh_registry ()) (fun () ->
      let t = Commit_adopt.make ~name:"ca" ~equal:Int.equal ~n:2 ~max_rounds:1 in
      Alcotest.check_raises "process 3 of 2" (Invalid_argument "ca.propose: bad process")
        (fun () -> ignore (Commit_adopt.propose t ~proc:3 0));
      let capped =
        Commit_adopt.make ~name:"ca" ~equal:Int.equal ~n:2 ~max_rounds:0
      in
      Alcotest.check_raises "no round below the cap"
        (Failure "ca: max_rounds exceeded") (fun () ->
          ignore (Commit_adopt.propose capped ~proc:1 0)))

(* Block ids are fixed by the offset, not by allocation order, and a
   block cannot be overrun. *)
let test_id_blocks () =
  let reg = Runtime.fresh_registry () in
  let ids_of order =
    Runtime.with_registry (Runtime.fresh_registry ()) (fun () ->
        let b1 = Runtime.reserve_ids 4 and b2 = Runtime.reserve_ids 4 in
        let alloc b off =
          Runtime.in_block b ~offset:off (fun () ->
              Runtime.register_object (fun () -> 0))
        in
        List.map (fun (b, off) -> alloc (if b = 1 then b1 else b2) off) order
        |> List.combine order |> List.sort compare)
  in
  let forward = ids_of [ (1, 0); (1, 3); (2, 1) ]
  and backward = ids_of [ (2, 1); (1, 3); (1, 0) ] in
  check_bool "ids independent of allocation order" true (forward = backward);
  check_bool "ids are base + offset" true
    (forward = [ ((1, 0), 1); ((1, 3), 4); ((2, 1), 6) ]);
  Runtime.with_registry reg (fun () ->
      let b = Runtime.reserve_ids 2 in
      check_int "objects outside a block go past it" 3
        (Runtime.register_object (fun () -> 0));
      match
        Runtime.in_block b ~offset:1 (fun () ->
            ignore (Runtime.register_object (fun () -> 0));
            Runtime.register_object (fun () -> 0))
      with
      | _ -> Alcotest.fail "overrunning a block must raise"
      | exception Invalid_argument _ -> ())

let suites =
  [
    ( "register rounds",
      [
        quick "instance registers O(n) objects" test_instance_is_small;
        quick "rounds built on entry, once" test_rounds_built_on_entry;
        quick "one-shot consensus builds rounds on entry, once"
          test_one_shot_rounds_built_on_entry;
        quick "commit-adopt rejects a bad process and the cap"
          test_commit_adopt_rejects;
        quick "id blocks" test_id_blocks;
        Alcotest.test_case "differential vs eager: register n=2,3" `Slow
          test_register_differential;
        Alcotest.test_case "differential vs eager: k-set k=2 n=4" `Slow
          test_kset_differential;
        Alcotest.test_case "differential vs eager: live (1,1), (1,2)" `Slow
          test_live_differential;
        quick "live-explore pumps past max 8 depth rounds" test_long_pump;
      ] );
  ]
