open Slx_sim

(* The observed-access conflict oracle, generalized out of the
   happens-before certifier (lib/analysis/hb.ml) so both exploration
   engines can consult it: two accesses conflict iff they touch the
   same base object and at least one writes it. *)
let observed_conflict (a : Runtime.access) (b : Runtime.access) =
  a.Runtime.obj = b.Runtime.obj && (a.Runtime.write || b.Runtime.write)

let observed_step probe =
  match probe with
  | Some pr -> Runtime.probe_last_observed pr
  | None -> Runtime.opaque

(* Whether the sleeping process [z] must be woken (a race reversal) by
   the executed step with observed footprint [observed]: its pending
   action no longer provably commutes with what the step actually did.
   A sleeping process with no pending footprint (it is not [Ready]
   anymore, which cannot happen for frozen continuations but is cheap
   to guard) is woken conservatively. *)
let wakes ~observed ~pending =
  match pending with
  | None -> true
  | Some fp -> not (Runtime.commute observed fp)

(* Advance a sleep set across an executed decision.  A step keeps
   exactly the sleepers whose pending footprints commute with its
   observed footprint; an invocation or a crash touches no shared
   state, so it keeps them all.  The woken entries — the race
   reversals — come second. *)
let advance ~observed ~pending sleep = function
  | Driver.Schedule _ ->
      List.partition (fun z -> not (wakes ~observed ~pending:(pending z))) sleep
  | _ -> (sleep, [])
