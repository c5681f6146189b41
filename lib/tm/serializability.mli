(** Serializability checkers for TM histories.

    Strict serializability (Papadimitriou 1979) is cited by the paper
    (Section 5.2) as another safety property with which biprogressing
    liveness is impossible; plain serializability drops the real-time
    constraint.  Both differ from opacity in ignoring the reads of
    aborted transactions: only (possibly-)committed transactions must
    be consistent.  Hence [opacity ⊆ strict serializability ⊆
    serializability] — an inclusion chain the property-based tests
    exercise. *)

val strict : Tm_type.history -> bool
(** The committed and commit-pending transactions admit a legal
    serialization preserving real-time order. *)

val plain : Tm_type.history -> bool
(** Same, preserving only per-process program order. *)
