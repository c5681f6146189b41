(** Source-set dynamic partial-order reduction, shared by the safety
    explorer ({!Explore}) and the fair-cycle search ({!Live_explore}).

    Classic sleep sets prune a scheduling decision when the slept
    process's {e declared} footprint commutes with every step taken
    since it went to sleep.  The DPOR variant keeps the same walk shape
    — at each node the active (non-slept) children form the node's
    {e source set}, and a process falls asleep once its subtree is
    explored — but advances the sleep set from {e dynamic} conflicts:
    after a step executes, the engine reads its physically observed
    accesses from a {!Slx_sim.Runtime.probe} and wakes exactly the
    sleepers whose pending actions raced with what the step actually
    did (a {e race reversal}: the reversed order must be explored).
    Observed accesses refine declarations (a clean implementation
    touches a subset of what it declares, the invariant the sanitizer
    certifies), so a declared conflict that does not materialize at
    runtime wakes no one.  No wakeup trees are needed: the engines'
    in-order walk already explores the reversal as the woken sibling's
    subtree.  This is the engines' only commutation oracle.

    The conflict relation is the one the happens-before certifier
    ({!Slx_analysis.Hb}) derives: two accesses conflict iff they touch
    the same base object and at least one writes ({!observed_conflict}
    is that oracle, generalized here so core engines can consult it
    without depending on the analysis layer). *)

open Slx_history
open Slx_sim

val observed_conflict : Runtime.access -> Runtime.access -> bool
(** [observed_conflict a b]: same object, at least one write — the
    observed-access conflict oracle. *)

val wakes :
  observed:Runtime.footprint -> pending:Runtime.footprint option -> bool
(** Whether a sleeper with this pending footprint must be woken by a
    step with this observed footprint — true exactly when the two do
    not provably commute (or the sleeper has no pending footprint).
    The engines use {!wakes_mask}; this footprint form is the
    reference oracle the tests check it against. *)

(** {1 Bitmask forms}

    The same oracle on precomputed {!Slx_sim.Runtime.mask}s — the
    representation the engines' hot paths use ([Runner.Cursor.pending_mask]
    for sleepers, {!Slx_sim.Runtime.probe_last_observed_mask} for the
    executed step), turning each race check into two word operations.
    Verdict-identical to the footprint forms above by
    [masks_commute ∘ mask_of_footprint = footprints_commute]
    (QCheck-tested in [test/test_compact.ml]). *)

val observed_step_mask : Runtime.probe option -> Runtime.mask
(** The observed mask of the step the engine just executed: the
    probe's physical touches when instrumentation reported any,
    otherwise its effective declared footprint
    ({!Slx_sim.Runtime.probe_last_observed_mask}); with no probe, the
    opaque mask. *)

val wakes_mask :
  observed:Runtime.mask -> pending:Runtime.mask option -> bool
(** {!wakes} on masks. *)

val advance_mask :
  observed:Runtime.mask ->
  pending:(Proc.t -> Runtime.mask option) ->
  int list ->
  ('inv, 'res) Driver.decision ->
  int list * int list
(** [advance_mask ~observed ~pending sleep d] splits the sleep set
    [sleep], the ids of processes whose steps sleep, into those that
    stay asleep across the executed decision [d] and those it wakes,
    in that order.  A step wakes
    exactly the sleepers racing with [observed] ({!wakes_mask}); an
    invocation or a crash writes no shared state and wakes none.  The
    woken entries are the race reversals the explorer counts and
    re-explores. *)
