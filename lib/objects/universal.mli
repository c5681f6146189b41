(** Herlihy's universal construction: a linearizable shared object of
    {e any} deterministic sequential type from consensus objects.

    The paper's introduction lists “high-level object implementations
    from registers [19]” among the contexts where its impossibilities
    apply.  This module supplies the context: processes agree — one
    log slot at a time, via {!One_shot_consensus} — on the order of
    all operations, and each process computes its response by replaying
    the decided log.  Linearizability holds by construction (the log
    {e is} the linearization order).

    Liveness is inherited from the consensus building block:

    - with {!One_shot_consensus.Cas} every slot race has a winner, so
      the log — and some process — always advances: lock-free,
      (1,n)-freedom (individual wait-freedom would additionally need
      Herlihy's helping/announce mechanism, deliberately not
      implemented here);
    - with {!One_shot_consensus.Registers} a process running without
      step contention fills a slot with its own operation:
      obstruction-free — and the lockstep schedule ties a slot's
      commit–adopt cascade forever, so (1,2)-freedom fails: the
      consensus grid of Figure 1a is the grid of {e every} universal
      object from registers, which the test suite and experiment E15
      demonstrate on a register and a stack. *)

open Slx_history

val factory :
  tp:('st, 'inv, 'res) Object_type.t ->
  consensus:[ `Cas | `Registers ] ->
  ?max_ops:int ->
  unit ->
  ('inv, 'res) Slx_sim.Runner.factory
(** A universal implementation of [tp].  The sequential specification
    must be deterministic (the first branch of [seq] is used; a spec
    with no branch for some reachable invocation makes that operation
    answer the first branch of a retry — such specs should be total).
    [max_ops] (default [4096]) bounds the log length.

    Construction registers nothing.  Slot [i]'s consensus object is
    built between two steps, by the first process to decide slot [i];
    processes decide slots in order, so slots are built in slot order
    and take their ids from the registry's counter alike in every
    schedule.

    @raise Failure at run time if the log or the spec is exhausted. *)
