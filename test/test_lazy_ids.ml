(* Schedule-independent object ids for the lazy allocators of the
   universal construction.  [One_shot_consensus.Registers] builds each
   commit-adopt round, and the universal construction's log each
   consensus slot, lazily inside an opaque step.  Several instances
   share one registry (the log's slots), and a round of one slot and a
   later slot can be built in either order.  Slots take ids from the
   registry's counter, in slot order; each [Registers] instance builds
   its rounds inside an id block it reserves at construction, so no id
   depends on the schedule.  Rounds numbered by the counter instead
   make equal configurations reached by different schedules digest
   differently, and the cache misses them.

   The oracle below builds every slot and round up front, at fixed
   ids, and keeps the lazy construction's steps exactly (the same
   opaque allocation step, the same table touches and counters).
   Its shared digest is therefore a function of the configuration
   alone.  Every explorer must see the same configuration graph
   through both: the same runs, nodes, steps, cache hits and history
   digest. *)

open Slx_history
open Slx_sim
open Slx_core
open Slx_objects
open Support

(* ------------------------------------------------------------------ *)
(* The eager oracle.                                                   *)

module Eager = struct
  open Slx_base_objects

  type 'a round = {
    a : 'a option Register.t array;
    b : (bool * 'a) option Register.t array;
  }

  (* [One_shot_consensus.Registers] with all [rounds] rounds built at
     construction.  Rounds are entered in order, so [allocated] — the
     count the lazy table digests — is the number entered so far. *)
  type 'a cons = {
    n : int;
    rounds : 'a round array;
    allocated : int ref;
    tbl : int;
    decision : 'a option Register.t;
  }

  let make_cons ~n ~rounds =
    let allocated = ref 0 in
    let tbl = Runtime.register_object (fun () -> !allocated) in
    let decision = Register.make None in
    let rounds =
      Array.init rounds (fun _ ->
          let a = Array.init n (fun _ -> Register.make None) in
          let b = Array.init n (fun _ -> Register.make None) in
          { a; b })
    in
    { n; rounds; allocated; tbl; decision }

  (* The lazy allocation step, minus the allocation. *)
  let enter ~tbl ~allocated i =
    Runtime.touch ~obj:tbl ~write:false;
    if i >= !allocated then begin
      Runtime.touch ~obj:tbl ~write:true;
      incr allocated
    end

  let round t r =
    if r >= Array.length t.rounds then failwith "Eager: rounds exhausted";
    Runtime.atomic (fun () ->
        enter ~tbl:t.tbl ~allocated:t.allocated r;
        t.rounds.(r))

  type 'a outcome = Commit of 'a | Adopt of 'a

  let commit_adopt round ~n ~i v =
    Register.write round.a.(i - 1) (Some v);
    let seen_a =
      List.filter_map
        (fun j -> Register.read round.a.(j))
        (List.init n (fun j -> j))
    in
    let phase1 =
      if List.for_all (fun u -> u = v) seen_a then (true, v) else (false, v)
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

  let propose t ~proc v =
    let rec go r pref =
      match Register.read t.decision with
      | Some w -> w
      | None -> begin
          match commit_adopt (round t r) ~n:t.n ~i:proc pref with
          | Commit u ->
              Register.write t.decision (Some u);
              u
          | Adopt u -> go (r + 1) u
        end
    in
    go 0 v

  type 'inv entry = { owner : Proc.t; id : int; inv : 'inv }
  type 'st cursor = { mutable index : int; mutable state : 'st; mutable next_id : int }

  (* [Universal.factory ~consensus:`Registers] with all [slots] log
     slots, each with all its rounds, built at construction. *)
  let factory (type st inv res) ~(tp : (st, inv, res) Object_type.t) ~slots
      ~rounds () : (inv, res) Runner.factory =
    let module Tp = (val tp) in
    let apply st i =
      match Tp.seq i st with
      | (st', res) :: _ -> (st', res)
      | [] -> failwith "Eager: sequential specification is not total"
    in
    fun ~n ->
      let allocated = ref 0 in
      let tbl = Runtime.register_object (fun () -> !allocated) in
      let log = Array.init slots (fun _ -> make_cons ~n ~rounds) in
      let slot i =
        if i >= slots then failwith "Eager: log exhausted";
        Runtime.atomic (fun () ->
            enter ~tbl ~allocated i;
            log.(i))
      in
      let cursors =
        Array.init (n + 1) (fun _ ->
            { index = 0; state = Tp.initial; next_id = 0 })
      in
      fun ~proc inv ->
        let cur = cursors.(proc) in
        let my = { owner = proc; id = cur.next_id; inv } in
        cur.next_id <- cur.next_id + 1;
        let rec race () =
          let winner = propose (slot cur.index) ~proc my in
          let state', res = apply cur.state winner.inv in
          cur.index <- cur.index + 1;
          cur.state <- state';
          if Proc.equal winner.owner proc && winner.id = my.id then res
          else race ()
        in
        race ()
end

(* ------------------------------------------------------------------ *)
(* Safety exploration, lazy vs eager.                                  *)

let register_tp : _ Object_type.t = (module Register_type)

(* Two operations per process: a write of its own value, then a read. *)
let two_ops =
  Explore.workload_invoke
    (Driver.n_times 2 (fun p k ->
         if k = 0 then Register_type.Write p else Register_type.Read))

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

module Lin = Slx_safety.Linearizability.Make (Register_type)

let linearizable r = Lin.check r.Run_report.history

let test_universal_registers_differential () =
  List.iter
    (fun (n, depth, max_crashes, dpor) ->
      let explore factory =
        Explore.explore ~n ~factory ~invoke:two_ops ~depth ~max_crashes ~dpor
          ~check:linearizable ()
      in
      let lazy_ =
        explore (fun () ->
            Universal.factory ~tp:register_tp ~consensus:`Registers ())
      and eager =
        explore (fun () ->
            Eager.factory ~tp:register_tp ~slots:(2 * n) ~rounds:depth ())
      in
      Alcotest.(check string)
        (Printf.sprintf "universal registers n=%d depth=%d crashes=%d%s" n
           depth max_crashes
           (if dpor then " dpor" else ""))
        (summary eager) (summary lazy_))
    (* In this walk a round is first built after a later slot at
       depth 25. *)
    [ (2, 26, 0, true) ]

let suites =
  [
    ( "lazy ids",
      [
        Alcotest.test_case "differential vs eager: universal over registers"
          `Slow test_universal_registers_differential;
      ] );
  ]
