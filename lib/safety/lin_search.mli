(** The shared search engine behind the linearizability and sequential
    consistency checkers.

    Both properties ask for a legal sequential ordering of a history's
    operations; they differ only in which precedence order the
    sequential history must respect (real-time order for
    linearizability, per-process program order for sequential
    consistency).  The engine performs the classical Wing–Gong
    exhaustive search with memoization on (linearized-set, object
    state): an operation may be placed next iff every operation that
    precedes it has already been placed and the object's sequential
    specification admits its recorded response.

    Pending operations (no response in the history) may either take
    effect — with any response the specification allows — or be dropped
    entirely.

    The search represents operation sets as bitmasks in a single OCaml
    [int], so histories are limited to {!max_ops} operations.  Longer
    histories yield [Error (Too_many_ops n)] — a contract the calling
    checkers handle, not a crash. *)

open Slx_history

val max_ops : int
(** Largest operation count the bitmask search supports (62: one tagged
    OCaml [int] of set bits). *)

type error = Too_many_ops of int
    (** The history contained this many operations, more than
        {!max_ops}. *)

module Make (Tp : Object_type.S) : sig
  type op = (Tp.invocation, Tp.response) Op.t

  val search :
    precedes:(op -> op -> bool) ->
    op list ->
    ((Proc.t * Tp.invocation * Tp.response) list option, error) result
  (** [search ~precedes ops] is [Ok (Some s)] where [s] is a legal
      sequential execution of the completed operations of [ops]
      (pending ones optionally included), respecting [precedes];
      [Ok None] if none exists; or [Error (Too_many_ops n)] when [ops]
      has [n > max_ops] operations and the bitmask search cannot run.

      Precedence constraints are precomputed into one predecessor
      bitmask per operation, so the inner readiness test is two mask
      operations; [precedes] is called O(|ops|²) times total, once per
      ordered pair, not per search node.

      Complexity is O(2^|ops| · |states|) in the worst case; intended
      for the short histories produced by bounded runs. *)
end
