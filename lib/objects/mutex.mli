(** Mutual exclusion as a shared object, with its own safety-liveness
    trade-off.

    Section 3.2 of the paper names {e starvation-freedom} — every
    correct process that tries to acquire a lock eventually succeeds —
    as the strongest liveness requirement ([Lmax]) for lock-based
    implementations.  This module makes that discussion executable:

    - the object type: [Acquire] / [Release] with [Acquired] the only
      good response (holding the lock is progress; releasing is mere
      bookkeeping);
    - {!mutual_exclusion}: the safety property — at no prefix do two
      processes hold the lock;
    - {!tas_factory}: the classical test-and-set spin lock;
    - {!workload}: a protocol-respecting driver (acquire, release,
      repeat);
    - {!run_starvation}: a scheduler that lets [p2] take the lock
      forever while granting [p1]'s acquire attempts only while the
      lock is held — [p1] starves, so (2,2)-freedom (and hence
      starvation-freedom) is excluded for the TAS lock, while
      (1,2)-freedom survives: the mutex row of the paper's trade-off
      table. *)

open Slx_history
open Slx_sim

type invocation = Acquire | Release

type response = Acquired | Released

val good : response -> bool
(** Only [Acquired] counts as progress. *)

val pp_invocation : Format.formatter -> invocation -> unit
val pp_response : Format.formatter -> response -> unit

type history = (invocation, response) History.t

val mutual_exclusion : history -> bool
(** No two processes simultaneously hold the lock, and only the holder
    releases.  Prefix-closed by construction (checked event by
    event). *)

val property : history Slx_safety.Property.t
(** {!mutual_exclusion} packaged, named ["mutual-exclusion"]. *)

val tas_factory : unit -> (invocation, response) Runner.factory
(** The test-and-set spin lock: [Acquire] retries a [test_and_set]
    until it wins; [Release] resets the flag.  Ensures mutual
    exclusion; deadlock-free (someone always wins) but not
    starvation-free. *)

val workload : ?procs:Proc.t list -> unit -> (invocation, response) Driver.t
(** A fair round-robin driver where every process alternates
    [Acquire] / [Release] forever: {!Slx_sim.Driver.round_robin_by}
    with an idle process's next invocation read off its last response
    ([Release] while it holds the lock, else [Acquire]), kept per
    process scheduler-side ({!Slx_sim.Driver.fold_procs}) so a run
    costs time linear in its length. *)

val random_workload :
  ?procs:Proc.t list -> seed:int -> unit -> (invocation, response) Driver.t
(** The same protocol under {!Slx_sim.Driver.random_by}, the seeded
    random scheduler. *)

val run_starvation :
  factory:(invocation, response) Runner.factory ->
  max_steps:int ->
  (invocation, response) Run_report.t
(** A run of two processes under the starvation scheduler described
    above. *)

val acquisitions : history -> (Proc.t * int) list
(** How many times each process acquired the lock. *)
