open Slx_history

(* A log entry: who wants which invocation; [id] makes entries of the
   same process distinct so a process can recognize its own win. *)
type 'inv entry = { owner : Proc.t; id : int; inv : 'inv }

module Make_log (C : One_shot_consensus.S) = struct
  type 'inv t = {
    n : int;
    max_ops : int;
    slots : (int, 'inv entry C.t) Hashtbl.t;
  }

  let make ~n ~max_ops = { n; max_ops; slots = Hashtbl.create 8 }

  (* Slot [i] is built by the first process to decide it, between two
     of its steps.  Its consensus object takes its ids from the
     registry's counter, so slots are built in slot order to be
     numbered alike in every schedule: a process decides slots 0, 1,
     2, ... in turn, so slot [i - 1] is built before any process needs
     slot [i]. *)
  let slot t i =
    match Hashtbl.find_opt t.slots i with
    | Some c -> c
    | None ->
        if i >= t.max_ops then
          failwith "Universal: log exhausted (raise max_ops)";
        assert (i = 0 || Hashtbl.mem t.slots (i - 1));
        let c = C.make ~n:t.n () in
        Hashtbl.add t.slots i c;
        c

  let decide t i ~proc entry = C.propose (slot t i) ~proc entry
end

module Cas_log = Make_log (One_shot_consensus.Cas)
module Reg_log = Make_log (One_shot_consensus.Registers)

(* Per-process replay cache: how far down the log this process has
   applied, and the object state at that point.  Purely local. *)
type 'st cursor = { mutable index : int; mutable state : 'st; mutable next_id : int }

let factory (type st inv res) ~(tp : (st, inv, res) Object_type.t) ~consensus
    ?(max_ops = 4096) () : (inv, res) Slx_sim.Runner.factory =
  let module Tp = (val tp) in
  let apply st i =
    match Tp.seq i st with
    | (st', res) :: _ -> (st', res)
    | [] -> failwith "Universal: sequential specification is not total"
  in
  fun ~n ->
    let decide =
      match consensus with
      | `Cas ->
          let log = Cas_log.make ~n ~max_ops in
          fun i ~proc entry -> Cas_log.decide log i ~proc entry
      | `Registers ->
          let log = Reg_log.make ~n ~max_ops in
          fun i ~proc entry -> Reg_log.decide log i ~proc entry
    in
    let cursors =
      Array.init (n + 1) (fun _ -> { index = 0; state = Tp.initial; next_id = 0 })
    in
    fun ~proc inv ->
      let cur = cursors.(proc) in
      let my = { owner = proc; id = cur.next_id; inv } in
      cur.next_id <- cur.next_id + 1;
      let rec race () =
        let winner = decide cur.index ~proc my in
        let state', res = apply cur.state winner.inv in
        cur.index <- cur.index + 1;
        cur.state <- state';
        if Proc.equal winner.owner proc && winner.id = my.id then res
        else race ()
      in
      race ()
