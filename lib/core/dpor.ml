open Slx_sim

(* The observed-access conflict oracle: two accesses conflict iff they
   touch the same base object and at least one writes it. *)
let observed_conflict (a : Runtime.access) (b : Runtime.access) =
  a.Runtime.obj = b.Runtime.obj && (a.Runtime.write || b.Runtime.write)

let observed_step probe =
  match probe with
  | Some pr -> Runtime.probe_last_observed pr
  | None -> Runtime.opaque

type sleep = (Slx_history.Proc.t * Runtime.footprint) list

(* Advance a sleep set across an executed decision.  A step keeps
   exactly the sleepers whose observed footprints commute with its
   own; an invocation or a crash touches no shared state, so it keeps
   them all.  The woken entries — the race reversals — come second. *)
let advance ~observed sleep = function
  | Driver.Schedule _ ->
      List.partition (fun (_, fp) -> Runtime.commute observed fp) sleep
  | _ -> (sleep, [])
