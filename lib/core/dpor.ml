open Slx_sim

(* The observed-access conflict oracle, generalized out of the
   happens-before certifier (lib/analysis/hb.ml) so both exploration
   engines can consult it: two accesses conflict iff they touch the
   same base object and at least one writes it. *)
let observed_conflict (a : Runtime.access) (b : Runtime.access) =
  a.Runtime.obj = b.Runtime.obj && (a.Runtime.write || b.Runtime.write)

(* Whether the sleeping process [z] must be woken (a race reversal) by
   the executed step with observed footprint [observed]: its pending
   action no longer provably commutes with what the step actually did.
   A sleeping process with no pending footprint (it is not [Ready]
   anymore, which cannot happen for frozen continuations but is cheap
   to guard) is woken conservatively. *)
let wakes ~observed ~pending =
  match pending with
  | None -> true
  | Some fp -> not (Runtime.footprints_commute observed fp)

(* ------------------------------------------------------------------ *)
(* Bitmask forms of the oracle above: same verdicts, no list walks.
   The engines precompute pending masks at suspension
   ([Runner.Cursor.pending_mask]) and the probe precomputes its
   observation mask at step end, so the per-decision race check is two
   word ANDs ([Runtime.masks_commute]). *)

let observed_step_mask probe =
  match probe with
  | Some pr -> Runtime.probe_last_observed_mask pr
  | None -> Runtime.opaque_mask

let wakes_mask ~observed ~pending =
  match pending with
  | None -> true
  | Some m -> not (Runtime.masks_commute observed m)

(* Advance a sleep set across an executed decision.  A step keeps
   exactly the sleepers whose pending masks commute with its observed
   mask; an invocation or a crash touches no shared state, so it keeps
   them all.  The woken entries — the race reversals — come second. *)
let advance_mask ~observed ~pending sleep = function
  | Driver.Schedule _ ->
      List.partition
        (fun z -> not (wakes_mask ~observed ~pending:(pending z)))
        sleep
  | _ -> (sleep, [])
