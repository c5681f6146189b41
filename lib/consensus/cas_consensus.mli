(** Wait-free consensus from compare-and-swap.

    The foil showing that the paper's consensus corollaries are about
    the {e base-object restriction}: with a single compare-and-swap
    object (consensus number ∞, Herlihy 1991) wait-freedom — the
    consensus [Lmax] — is implementable together with agreement and
    validity.  Every [propose] is two atomic steps: one CAS attempt and
    one read.

    The instance is written once, over arbitrary values, for
    {!factory} and [Slx_objects.One_shot_consensus.Cas]. *)

type 'a t
(** One consensus instance: a single compare-and-swap object holding
    [None] until the first proposal lands. *)

val make : n:int -> unit -> 'a t
(** A fresh undecided instance (for any number of processes). *)

val propose : 'a t -> proc:Slx_history.Proc.t -> 'a -> 'a
(** [propose t ~proc v] tries to swap [None] for [Some v], then reads
    the object and returns the decided value. *)

val factory :
  unit ->
  (Consensus_type.invocation, Consensus_type.response) Slx_sim.Runner.factory
(** Consensus over [int] proposals, one instance per
    implementation instance. *)
