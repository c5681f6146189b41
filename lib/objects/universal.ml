open Slx_history

(* A log entry: who wants which invocation; [id] makes entries of the
   same process distinct so a process can recognize its own win. *)
type 'inv entry = { owner : Proc.t; id : int; inv : 'inv }

module Make_log (C : One_shot_consensus.S) = struct
  type 'inv t = {
    n : int;
    slots : 'inv entry C.t option array;
    allocated : int ref;  (* slots allocated so far *)
    tbl : int;  (* footprint id of the allocation table *)
  }

  let make ~n ~max_ops =
    (* The slot table is shared mutable state: fingerprint its
       allocation count (slots fill in order; the consensus objects
       inside register their own readers) and give it a footprint id
       so the lazy-allocation step reports its accesses. *)
    let allocated = ref 0 in
    {
      n;
      slots = Array.make max_ops None;
      allocated;
      tbl = Slx_sim.Runtime.register_object (fun () -> !allocated);
    }

  (* Lazily allocate slot [i]; one atomic step, so the shared table
     mutation cannot be interleaved.  The step observes its [tbl]
     touches: a read, plus a write when it allocates.  Every later use
     of the slot's consensus object follows a [tbl] read by the same
     process, so the allocating write orders it. *)
  let slot t i =
    if i >= Array.length t.slots then
      failwith "Universal: log exhausted (raise max_ops)";
    Slx_sim.Runtime.atomic (fun () ->
        Slx_sim.Runtime.touch ~obj:t.tbl ~write:false;
        match t.slots.(i) with
        | Some c -> c
        | None ->
            let c = C.make ~n:t.n () in
            Slx_sim.Runtime.touch ~obj:t.tbl ~write:true;
            t.slots.(i) <- Some c;
            incr t.allocated;
            c)

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
