open Slx_history
open Slx_sim

type invocation = Consensus_type.invocation
type response = Consensus_type.response

let decisions h =
  List.filter_map
    (fun e ->
      match e with
      | Event.Response (p, Consensus_type.Decided v) -> Some (p, v)
      | Event.Invocation _ | Event.Crash _ -> None)
    (History.to_list h)

let lockstep ?(pair = (1, 2)) () : _ Driver.t =
  let p1, p2 = pair in
  let proposal p = if p = p1 then 0 else 1 in
  fun view ->
    (* Keep the two processes in lockstep: next is whichever has fewer
       grants (ties to the first); re-invoke on completion. *)
    let next = if view.Driver.steps p1 <= view.Driver.steps p2 then p1 else p2 in
    match view.Driver.status next with
    | Runtime.Ready -> Driver.Schedule next
    | Runtime.Idle -> Driver.Invoke (next, Consensus_type.Propose (proposal next))
    | Runtime.Crashed -> Driver.Stop

let run_lockstep ~factory ~max_steps =
  Runner.run ~n:2 ~factory ~driver:(lockstep ()) ~max_steps ()

type attack_result =
  | Defeated of (invocation, response) Run_report.t
  | Lost of (invocation, response) Run_report.t

(* Replay a schedule prefix and return the report. *)
let replay ~factory ~script ?(extra = fun (_ : _ Driver.view) -> Driver.Stop)
    ~max_steps () =
  let scripted = Driver.of_script script in
  let done_ = ref false in
  let driver view =
    if !done_ then extra view
    else
      match scripted view with
      | Driver.Stop ->
          done_ := true;
          extra view
      | d -> d
  in
  Runner.run ~n:2 ~factory ~driver ~max_steps ()

(* Each solo probe's step budget. *)
let solo_budget = 1000

(* The decision process [p] reaches when run solo after [script]. *)
let solo_decision ~factory ~script p =
  let extra view =
    match view.Driver.status p with
    | Runtime.Ready -> Driver.Schedule p
    | Runtime.Idle | Runtime.Crashed -> Driver.Stop
  in
  let report =
    replay ~factory ~script ~extra
      ~max_steps:(List.length script + solo_budget)
      ()
  in
  (* The first decision by [p] (replaying a deterministic
     implementation, [p] decides at most one value). *)
  List.find_map
    (fun (q, v) -> if Proc.equal p q then Some v else None)
    (decisions report.Run_report.history)

let tie_attack ~factory ~steps () =
  let initial =
    [
      Driver.Invoke (1, Consensus_type.Propose 0);
      Driver.Invoke (2, Consensus_type.Propose 1);
    ]
  in
  let tied script =
    let d1 = solo_decision ~factory ~script 1 in
    let d2 = solo_decision ~factory ~script 2 in
    match d1, d2 with Some v1, Some v2 -> v1 <> v2 | _, _ -> false
  in
  let no_decision script =
    let report = replay ~factory ~script ~max_steps:(List.length script) () in
    decisions report.Run_report.history = []
  in
  let grants_of script p =
    List.length
      (List.filter (function Driver.Schedule q -> q = p | _ -> false) script)
  in
  let rec extend script remaining =
    if remaining = 0 then
      Defeated (replay ~factory ~script ~max_steps:(List.length script) ())
    else
      let candidates =
        if grants_of script 1 <= grants_of script 2 then [ 1; 2 ] else [ 2; 1 ]
      in
      let try_cand p =
        let script' = script @ [ Driver.Schedule p ] in
        (* A candidate can be outright invalid (the process completed
           an operation and is idle); treat that like a broken tie. *)
        match no_decision script' && tied script' with
        | true -> Some script'
        | false -> None
        | exception Invalid_argument _ -> None
      in
      match List.find_map try_cand candidates with
      | Some script' -> extend script' (remaining - 1)
      | None ->
          (* Every extension decides or breaks the tie: the adversary
             lost.  Report a run where a decision is reachable: let the
             first candidate run solo to completion. *)
          let p = List.hd candidates in
          let extra view =
            match view.Driver.status p with
            | Runtime.Ready -> Driver.Schedule p
            | Runtime.Idle | Runtime.Crashed -> Driver.Stop
          in
          Lost
            (replay ~factory ~script ~extra
               ~max_steps:(List.length script + solo_budget)
               ())
  in
  if tied initial then extend initial steps
  else Lost (replay ~factory ~script:initial ~max_steps:2 ())
