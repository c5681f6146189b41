(** Opacity (Guerraoui & Kapalka, PPoPP 2008) — the TM safety property
    of Corollaries 4.6 and 4.11 and of Section 5.

    “History [h] ensures opacity if for every finite prefix [h'] of [h]
    there exists a sequential history [s] such that [s] is equivalent
    to some completion [comp(h')] of [h'], [s] preserves the real time
    order of [comp(h')], and [s] respects the sequential specification
    [Seq].” (Section 4.1.)

    The checker searches for a serialization order of the history's
    transactions such that:
    - the real-time order of transactions is preserved;
    - every transaction — {e aborted ones included} — reads values
      consistent with the writes of the committed transactions
      serialized before it (deferred-update semantics: aborted and live
      transactions' writes are invisible);
    - completions are enumerated: a commit-pending transaction may be
      completed with [C] or [A]; live transactions are aborted.

    The search memoizes on (serialized-set, variable store), and the
    real-time order prunes heavily, so histories from bounded runs
    check quickly despite the worst-case exponential bound. *)

val serializable : Transaction.t list -> bool
(** Whether the transaction set admits a legal serialization as
    described above. *)

val serialization : Transaction.t list -> Transaction.t list option
(** A witness order, if one exists (the committed-completion choice is
    not reported). *)

val check_final : Tm_type.history -> bool
(** Final-state opacity: the history's transactions are serializable. *)

val check : Tm_type.history -> bool
(** Full opacity: every prefix of the history passes {!check_final}.
    (Final-state opacity is not prefix-closed in general — a read that
    becomes justifiable only by a later commit-pending transaction can
    make a bad prefix look good — so this is the faithful, quadratic
    check.) *)

val property : Tm_type.history Slx_safety.Property.t
(** {!check} packaged, named ["opacity"]. *)
