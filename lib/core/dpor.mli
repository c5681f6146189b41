(** Source-set dynamic partial-order reduction, shared by the safety
    explorer ({!Explore}) and the fair-cycle search ({!Live_explore}).

    Classic sleep sets prune a scheduling decision when the slept
    process's step commutes with every step taken since it went to
    sleep.  The DPOR variant keeps the same walk shape — at each node
    the active (non-slept) children form the node's {e source set},
    and a process falls asleep once its subtree is explored — and
    decides commutation from {e dynamic} conflicts on both sides.
    After a step executes, the engine reads its physically observed
    accesses from a {!Slx_sim.Runtime.probe}.  A sleeper carries the
    footprint its own step observed when it ran, as an earlier
    sibling, from the configuration where it fell asleep.  While every
    later step commutes with that footprint, no value the sleeper
    reads changes, so its step would still perform exactly that
    footprint.  A step wakes exactly the sleepers it races with (a
    {e race reversal}: the reversed order must be explored).  No
    wakeup trees are needed: the engines' in-order walk already
    explores the reversal as the woken sibling's subtree.  This is the
    engines' only commutation oracle.

    Two accesses conflict iff they touch the same base object and at
    least one writes ({!observed_conflict}). *)

open Slx_history
open Slx_sim

val observed_conflict : Runtime.access -> Runtime.access -> bool
(** [observed_conflict a b]: same object, at least one write — the
    observed-access conflict oracle. *)

val observed_step : Runtime.probe option -> Runtime.footprint
(** The observed footprint of the step the engine just executed
    ({!Slx_sim.Runtime.probe_last_observed}); with no probe,
    {!Slx_sim.Runtime.opaque}. *)

type sleep = (Proc.t * Runtime.footprint) list
(** A sleep set: each sleeping process with the footprint its step
    observed when it ran as an earlier sibling, sorted by process, each
    process at most once. *)

val advance :
  observed:Runtime.footprint ->
  sleep ->
  ('inv, 'res) Driver.decision ->
  sleep * sleep
(** [advance ~observed sleep d] splits the sleep set [sleep] into the
    sleepers that stay asleep across the executed decision [d] and
    those it wakes, in that order.  A step wakes exactly the sleepers
    whose footprints do not commute with [observed]
    ({!Slx_sim.Runtime.commute}); an invocation or a crash writes no
    shared state and wakes none.  The woken entries are the race
    reversals the explorer counts and re-explores. *)
