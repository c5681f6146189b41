open Slx_history
open Slx_sim

let next_invocation view p =
  (* Replay the process's events since its last [start] to find its
     position in the canonical increment transaction. *)
  let events = History.to_list (History.project view.Driver.history p) in
  let rec in_txn last_read = function
    | [] ->
        (* Transaction open: next op per position. *)
        begin
          match last_read with
          | None -> Tm_type.Read 0
          | Some v -> Tm_type.Write (0, v + 1)
        end
    | Event.Response (_, Tm_type.Val v) :: rest -> in_txn (Some v) rest
    | Event.Response (_, Tm_type.Ok) :: rest -> begin
        match last_read with
        | Some _ ->
            (* The write completed; commit next (no further responses
               expected before tryC in this program). *)
            after_write rest
        | None -> in_txn last_read rest
      end
    | Event.Response (_, (Tm_type.Committed | Tm_type.Aborted)) :: _ ->
        (* Closed: should have been caught by the outer scan. *)
        Tm_type.Start
    | (Event.Invocation _ | Event.Crash _) :: rest -> in_txn last_read rest
  and after_write = function
    | [] -> Tm_type.Try_commit
    | _ :: rest -> after_write rest
  in
  (* Rebuild the list of events after the last Start, in order. *)
  let rec split_last_start rev_before = function
    | [] -> None
    | Event.Invocation (_, Tm_type.Start) :: rest ->
        (* Candidate; look for a later one first. *)
        begin
          match split_last_start [] rest with
          | Some tail -> Some tail
          | None -> Some rest
        end
    | e :: rest -> split_last_start (e :: rev_before) rest
  in
  match split_last_start [] events with
  | None -> Tm_type.Start
  | Some tail ->
      let closed =
        List.exists
          (fun e ->
            match e with
            | Event.Response (_, (Tm_type.Committed | Tm_type.Aborted)) -> true
            | Event.Response _ | Event.Invocation _ | Event.Crash _ -> false)
          tail
      in
      if closed then Tm_type.Start else in_txn None tail

let round_robin ?procs () =
  Driver.round_robin_by ?procs (fun view p -> Some (next_invocation view p))

let random ?procs ~seed () =
  Driver.random_by ?procs ~seed (fun view p -> Some (next_invocation view p))
