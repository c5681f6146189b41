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

(* The safety explorer's sleep-set entries, as signed ints: [p] for a
   slept [Schedule p], [-p] for a slept [Crash p].  Process ids are
   positive, so the two kinds never alias, and a sorted list of entries
   is a canonical transposition-key tail. *)
let sleeper = function
  | Driver.Schedule p -> Some p
  | Driver.Crash p -> Some (-p)
  | Driver.Invoke _ | Driver.Stop -> None

(* Advance a sleep set across an executed decision of process [p]:
   - a crash of [p] touches only [p]'s cell and appends an event that
     is neither an invocation nor a response, so it keeps every other
     process's entries and drops [p]'s own (both are disabled now);
   - an invocation by [p] touches only [p]'s local state: it commutes
     with any pending step and wakes only a slept [Crash p];
   - a step of [p] keeps exactly the slept steps whose pending masks
     commute with its observed mask, and every slept crash but [p]'s.
   The woken entries — the race reversals — come second. *)
let advance_mask ~observed ~pending sleep d =
  match d with
  | Driver.Crash p -> (List.filter (fun z -> abs z <> p) sleep, [])
  | Driver.Invoke (p, _) -> List.partition (fun z -> z <> -p) sleep
  | Driver.Stop -> (sleep, [])
  | Driver.Schedule p ->
      List.partition
        (fun z ->
          if z < 0 then z <> -p
          else not (wakes_mask ~observed ~pending:(pending z)))
        sleep
