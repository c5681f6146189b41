(** Polymorphic one-shot consensus objects, the building block of the
    universal construction.

    Two variants with the same interface and different base objects —
    exactly the split the paper's consensus corollaries hinge on:

    - {!Cas}: from a single compare-and-swap: wait-free (two steps);
    - {!Registers}: a commit–adopt cascade from read/write registers:
      obstruction-free, and tied forever by a lockstep schedule.

    [propose] is idempotent per object: every call returns the decided
    value, so processes can re-propose while racing for log slots. *)

open Slx_history

module type S = sig
  type 'a t

  val make : n:int -> unit -> 'a t
  (** A fresh undecided consensus object for [n] processes. *)

  val propose : 'a t -> proc:Proc.t -> 'a -> 'a
  (** Propose a value; returns the decided value.  May take unboundedly
      many steps for {!Registers} under contention. *)
end

module Cas : S
(** {!Slx_consensus.Cas_consensus}, the instance
    {!Slx_consensus.Cas_consensus.factory} also runs: decide by a
    single compare-and-swap. *)

module Registers : S
(** {!Slx_consensus.Commit_adopt}, the cascade
    {!Slx_consensus.Register_consensus} also runs, over arbitrary
    values compared with structural equality and capped at 4096 rounds.
    [make] reserves the instance's id block and registers its decision
    register; each round is built between steps, by the first process
    to enter it.  Obstruction-free only. *)
