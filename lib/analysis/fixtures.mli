(** Deliberately mis-declared implementations, pinning the sanitizer's
    behavior.

    Each factory is a tiny register-like object whose footprint
    declarations are wrong in exactly one way; the audit tests assert
    that each is caught by the intended layer (race detector, nesting
    check, declaration lints, HB certifier, commutation oracle) with a
    replayable witness, and that the clean twin passes. *)

open Slx_sim

type inv = Poke of int | Peek
type res = Ack | Got of int

val pp_inv : inv -> string
val pp_res : res -> string

val cell : 'a -> 'a ref * int
(** A bare instrumented cell: a ref plus its registered footprint id.
    Must be created under a registry (i.e. inside a factory run by
    {!Slx_sim.Runner.Cursor.with_}). *)

val load : 'a ref * int -> 'a
(** Read through {!Slx_sim.Runtime.touch}. *)

val store : 'a ref * int -> 'a -> unit
(** Write through {!Slx_sim.Runtime.touch}. *)

val leaky_factory : (inv, res) Runner.factory
(** [Poke] declares a write of one cell but secretly writes a second;
    [Peek] reads the second correctly.  Caught as
    {!Slx_sim.Runtime.Undeclared_touch}. *)

val write_under_read_factory : (inv, res) Runner.factory
(** [Poke] declares a read but performs a write of the same cell.
    Caught as {!Slx_sim.Runtime.Undeclared_touch} with [v_write]. *)

val phantom_factory : (inv, res) Runner.factory
(** [Poke] takes an extra step declaring a write of a cell it never
    touches.  No violation; linted as never-touched over-declaration. *)

val nested_escape_factory : (inv, res) Runner.factory
(** A nested atomic action declares an object the pending footprint
    never mentioned.  Caught as
    {!Slx_sim.Runtime.Undeclared_nesting}. *)

val nested_ok_factory : (inv, res) Runner.factory
(** Legal nesting under an opaque outer step — clean, modulo the
    opaque-step lint its audit case waives. *)

val clean_factory : (inv, res) Runner.factory
(** The correctly-declared twin of {!leaky_factory} — passes every
    audit layer. *)

val deep_leaky_factory : (inv, res) Runner.factory
(** [leaky_factory] with the undeclared write gated behind the eighth
    [Poke]: bounded exploration at the audit's default depths never
    reaches it (the sanitizer reports clean), the static footprint
    lint flags it on every run.  The doc/model.md section 12 and
    EXPERIMENTS.md E26 demonstration pair. *)

val workload : ops:int -> (inv, res) Driver.workload
(** Process 1 pokes, everyone else peeks, [ops] invocations each. *)
