(** Hash-consing tables for compact configuration encodings.

    The exploration engines intern each history into a dense
    small-int id, incrementally (event, then (previous id, event id)),
    so a transposition key carries one int for the whole history
    instead of a deep structural value.  The rest of a key is a flat
    int array the table hashes directly ({!Key_table}).

    {b Soundness.}  [intern t a = intern t b] iff [a = b] (structural
    equality), for interns through the same table: an id is assigned
    exactly once per distinct value and looked up by structural
    equality afterwards.  Replacing key components with their interned
    ids therefore preserves exactly the equality the caches relied on
    — no new collisions, no lost distinctions.  The property is
    QCheck-tested in [test/test_compact.ml].

    Interners grow monotonically (one entry per distinct value seen);
    engines scope them per search so the pools die with the search.
    Not thread-safe: each exploration owns its own pools. *)

type 'a t
(** An interner over structural equality of ['a]. *)

val create : ?initial:int -> unit -> 'a t
(** A fresh, empty interner ([initial]: initial table size). *)

val intern : 'a t -> 'a -> int
(** The id of the value: dense from 0 in first-seen order. *)

val count : 'a t -> int
(** Distinct values interned so far. *)
