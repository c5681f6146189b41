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

val observed_step : Runtime.probe option -> Runtime.footprint
(** The observed footprint of the step the engine just executed: the
    probe's physical touches when instrumentation reported any,
    otherwise its effective declared footprint
    ({!Slx_sim.Runtime.probe_last_observed}); with no probe,
    {!Slx_sim.Runtime.opaque}. *)

val wakes :
  observed:Runtime.footprint -> pending:Runtime.footprint option -> bool
(** Whether a sleeper with this pending footprint
    ([Runner.Cursor.pending]) must be woken by a step with this
    observed footprint ({!observed_step}) — true exactly when the two
    do not commute ({!Slx_sim.Runtime.commute}), or the sleeper has no
    pending footprint.  Each race check is a couple of word
    operations. *)

val advance :
  observed:Runtime.footprint ->
  pending:(Proc.t -> Runtime.footprint option) ->
  int list ->
  ('inv, 'res) Driver.decision ->
  int list * int list
(** [advance ~observed ~pending sleep d] splits the sleep set
    [sleep], the ids of processes whose steps sleep, into those that
    stay asleep across the executed decision [d] and those it wakes,
    in that order.  A step wakes exactly the sleepers racing with
    [observed] ({!wakes}); an invocation or a crash writes no shared
    state and wakes none.  The woken entries are the race reversals
    the explorer counts and re-explores. *)
