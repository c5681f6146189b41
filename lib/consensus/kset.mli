(** k-set agreement: the generalization the paper's introduction names
    as another context for its impossibilities (via Borowsky–Gafni
    [3]).

    Processes propose values and each decides one; safety demands at
    most [k] distinct decided values (k-agreement) and that every
    decision was proposed ({!validity}).  [k = 1] is consensus.

    {!grouped_factory} implements k-set agreement from registers by
    partitioning the processes into [k] groups, each running its own
    register consensus (commit–adopt cascade): at most one decision
    value per group.  The consensus trade-off is inherited per group:
    a group member running without in-group contention decides
    ((1,1)-freedom survives), while the lockstep adversary applied
    {e inside} one group starves that group — so the same Figure 1a
    shape holds for k-set agreement from registers, which the test
    suite demonstrates. *)

open Slx_history

type history = (Consensus_type.invocation, Consensus_type.response) History.t

val validity : history -> bool
(** Every decided value was proposed before it was decided. *)

val check : k:int -> history -> bool
(** Well-formedness ∧ k-agreement ∧ validity. *)

val property : k:int -> history Slx_safety.Property.t
(** Named ["<k>-set-agreement"]. *)

val group_of : k:int -> Proc.t -> int
(** The group (0-based, [< k]) a process belongs to under the
    round-robin partition used by {!grouped_factory}. *)

val grouped_factory :
  k:int ->
  ?max_rounds:int ->
  unit ->
  (Consensus_type.invocation, Consensus_type.response) Slx_sim.Runner.factory
(** [k] independent register-consensus instances, one per group. *)
