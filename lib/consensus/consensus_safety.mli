(** Agreement and validity: the consensus safety property of the
    paper's corollaries.

    “Agreement and validity, a safety property of consensus objects,
    states that all processes decide the same value and the decided
    value is the value proposed by one of the processes.”
    (Section 4.1.)

    This is deliberately the paper's property — weaker than
    linearizability of the consensus type (which is also provided, via
    {!Slx_safety.Linearizability}, for the test suites to compare). *)

open Slx_history

type history = (Consensus_type.invocation, Consensus_type.response) History.t

val decided_values : history -> int list
(** The values decided in the history, in order, repeats kept. *)

val agreement : history -> bool
(** All decided values in the history are equal. *)

val validity : history -> bool
(** Every decided value was proposed before it was decided. *)

val check : history -> bool
(** Agreement ∧ validity ∧ well-formedness. *)

val property : history Slx_safety.Property.t
(** The property as a first-class value, named
    ["agreement-and-validity"].  Prefix-closed: both conjuncts only
    constrain events against earlier events. *)

val linearizability : history Slx_safety.Property.t
(** Linearizability w.r.t. the consensus sequential specification —
    strictly stronger than {!property}; used as a comparison point in
    tests. *)
