open Slx_history
open Slx_sim

(* A process's position in the canonical increment transaction, read
   off its events: the last [start] opens a transaction, a commit or
   an abort closes it, a read fixes the value to write, and the
   write's [ok] leaves only the commit. *)
type position = Closed | Open of int option | Written

let step pos = function
  | Event.Invocation (_, Tm_type.Start) -> Open None
  | Event.Response (_, (Tm_type.Committed | Tm_type.Aborted)) -> Closed
  | Event.Response (_, Tm_type.Val v) -> (
      match pos with Open _ -> Open (Some v) | Closed | Written -> pos)
  | Event.Response (_, Tm_type.Ok) -> (
      match pos with
      | Open (Some _) -> Written
      | Closed | Open None | Written -> pos)
  | Event.Invocation _ | Event.Crash _ -> pos

let invocation = function
  | Closed -> Tm_type.Start
  | Open None -> Tm_type.Read 0
  | Open (Some v) -> Tm_type.Write (0, v + 1)
  | Written -> Tm_type.Try_commit

let next_invocation view p =
  invocation
    (List.fold_left step Closed
       (History.to_list (History.project view.Driver.history p)))

(* The drivers keep each process's position scheduler-side, so a run
   costs time linear in its length. *)
let next () =
  let position = Driver.fold_procs ~init:Closed step () in
  fun view p -> Some (invocation (position view p))

let round_robin ?procs () = Driver.round_robin_by ?procs (next ())

let random ?procs ~seed () = Driver.random_by ?procs ~seed (next ())
