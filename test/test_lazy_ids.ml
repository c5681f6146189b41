(* Schedule-independent object ids for the objects the universal
   construction builds between steps.  Its log builds slot [i]'s
   consensus object when a process first decides slot [i], and
   [One_shot_consensus.Registers] builds each commit-adopt round when a
   process first enters it; neither adds a step.  Slots take ids from
   the registry's counter, in slot order; each [Registers] instance
   builds its rounds inside an id block it reserves at construction, so
   no id depends on the schedule.  Ids that did would make equal
   configurations reached by different schedules digest differently,
   and the cache would miss them.

   The oracle below is plain eager construction: every slot and every
   round is built with the instance.  Its shared digest is therefore a
   function of the configuration alone.  Every explorer must see the
   same configuration graph through both, over either consensus: the
   same runs, nodes, steps, cache hits and history digest. *)

open Slx_history
open Slx_sim
open Slx_core
open Slx_objects
open Support

(* ------------------------------------------------------------------ *)
(* The eager oracle.                                                   *)

module Eager = struct
  open Slx_base_objects

  (* A consensus object is its propose function. *)
  type 'a cons = proc:Proc.t -> 'a -> 'a

  (* [One_shot_consensus.Cas]. *)
  let cas ~n:_ : _ cons =
    let c = Cas.make None in
    fun ~proc:_ v ->
      ignore (Cas.compare_and_swap c ~expected:None ~desired:(Some v));
      match Cas.read c with Some w -> w | None -> assert false

  type 'a round = {
    a : 'a option Register.t array;
    b : (bool * 'a) option Register.t array;
  }

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

  (* [One_shot_consensus.Registers] with all [rounds] rounds built at
     construction. *)
  let registers ~rounds ~n : _ cons =
    let decision = Register.make None in
    let rounds =
      Array.init rounds (fun _ ->
          let a = Array.init n (fun _ -> Register.make None) in
          let b = Array.init n (fun _ -> Register.make None) in
          { a; b })
    in
    fun ~proc v ->
      let rec go r pref =
        if r >= Array.length rounds then failwith "Eager: rounds exhausted";
        match Register.read decision with
        | Some w -> w
        | None -> begin
            match commit_adopt rounds.(r) ~n ~i:proc pref with
            | Commit u ->
                Register.write decision (Some u);
                u
            | Adopt u -> go (r + 1) u
          end
      in
      go 0 v

  type 'inv entry = { owner : Proc.t; id : int; inv : 'inv }
  type 'st cursor = { mutable index : int; mutable state : 'st; mutable next_id : int }

  (* [Universal.factory] with all [slots] log slots built at
     construction, in slot order, each by [cons]. *)
  let factory (type st inv res) ~(tp : (st, inv, res) Object_type.t) ~slots
      ~(cons : n:int -> inv entry cons) () : (inv, res) Runner.factory =
    let module Tp = (val tp) in
    let apply st i =
      match Tp.seq i st with
      | (st', res) :: _ -> (st', res)
      | [] -> failwith "Eager: sequential specification is not total"
    in
    fun ~n ->
      let log = Array.init slots (fun _ -> cons ~n) in
      let cursors =
        Array.init (n + 1) (fun _ ->
            { index = 0; state = Tp.initial; next_id = 0 })
      in
      fun ~proc inv ->
        let cur = cursors.(proc) in
        let my = { owner = proc; id = cur.next_id; inv } in
        cur.next_id <- cur.next_id + 1;
        let rec race () =
          if cur.index >= slots then failwith "Eager: log exhausted";
          let winner = log.(cur.index) ~proc my in
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

let test_universal_differential () =
  List.iter
    (fun (consensus, n, depth, max_crashes, dpor) ->
      let explore factory =
        Explore.explore ~n ~factory ~invoke:two_ops ~depth ~max_crashes ~dpor
          ~check:linearizable ()
      in
      let lazy_ =
        explore (fun () -> Universal.factory ~tp:register_tp ~consensus ())
      and eager =
        explore (fun () ->
            Eager.factory ~tp:register_tp ~slots:(2 * n)
              ~cons:
                (match consensus with
                | `Cas -> Eager.cas
                | `Registers -> Eager.registers ~rounds:depth)
              ())
      in
      Alcotest.(check string)
        (Printf.sprintf "universal %s n=%d depth=%d crashes=%d%s"
           (match consensus with `Cas -> "cas" | `Registers -> "registers")
           n depth max_crashes
           (if dpor then " dpor" else ""))
        (summary eager) (summary lazy_))
    [
      (* Deep enough that later slots and later rounds are built. *)
      (`Registers, 2, 26, 0, true);
      (`Cas, 3, 12, 1, true);
    ]

let suites =
  [
    ( "lazy ids",
      [
        Alcotest.test_case "differential vs eager: universal over either consensus"
          `Slow test_universal_differential;
      ] );
  ]
