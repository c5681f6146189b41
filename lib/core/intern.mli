(** Hash-consing tables for compact configuration encodings.

    The exploration engines intern structural values into dense
    small-int ids once, so transposition keys become single ints (or
    short int tuples) hashed with a 64-bit mixer instead of deep
    structural traversals on every visit.

    {b Soundness.}  [intern t a = intern t b] iff [a = b] (structural
    equality), for interns through the same table: an id is assigned
    exactly once per distinct value and looked up by structural
    equality afterwards.  Replacing key components with their interned
    ids therefore preserves exactly the equality the caches relied on
    — no new collisions, no lost distinctions.  The property is
    QCheck-tested in [test/test_compact.ml].

    Interners grow monotonically (one entry per distinct value seen);
    engines scope them per search so the pools die with the search.
    Not thread-safe: each exploration owns its own pools, scoped like
    its transposition cache. *)

type 'a t
(** An interner over structural equality of ['a]. *)

val create : ?initial:int -> unit -> 'a t
(** A fresh, empty interner ([initial]: initial table size). *)

val intern : 'a t -> 'a -> int
(** The id of the value: dense from 0 in first-seen order. *)

val count : 'a t -> int
(** Distinct values interned so far. *)

(** Interning specialized to [int array] keys, with an explicit
    full-array mix fold for the bucket hash — the polymorphic hash
    would sample only a prefix of long keys. *)
module Ints : sig
  type t

  val create : ?initial:int -> unit -> t
  val intern : t -> int array -> int
  val count : t -> int
end
