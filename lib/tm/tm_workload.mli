(** A protocol-respecting TM workload driver.

    TM invocations must follow the transaction protocol — after an
    abort the only sensible next invocation is [start] — so a workload
    cannot be a fixed invocation sequence; it must react to responses.
    This driver derives each process's next invocation from its own
    projected history: every process runs the canonical conflicting
    increment transaction

    {v start() ; x.read() ; x.write(read value + 1) ; tryC() v}

    forever, restarting after any abort.  All processes touch the same
    variable [x = 0], so the workload is maximally contended — the
    regime in which the (l,k)-freedom differences between TM
    implementations are visible. *)

open Slx_sim

val next_invocation :
  (Tm_type.invocation, Tm_type.response) Driver.view ->
  Slx_history.Proc.t ->
  Tm_type.invocation
(** The next protocol-legal invocation for an idle process, derived
    from its projected history.  The drivers below compute the same
    invocation from each process's position kept scheduler-side
    ({!Slx_sim.Driver.fold_procs}), so a run they drive costs time
    linear in its length. *)

val round_robin :
  ?procs:Slx_history.Proc.t list ->
  unit ->
  (Tm_type.invocation, Tm_type.response) Driver.t
(** Fair rotation over [procs] (default all), scheduling ready
    processes and issuing {!next_invocation} to idle ones:
    {!Slx_sim.Driver.round_robin_by}. *)

val random :
  ?procs:Slx_history.Proc.t list ->
  seed:int ->
  unit ->
  (Tm_type.invocation, Tm_type.response) Driver.t
(** Seeded uniform choice among eligible processes, issuing
    {!next_invocation}: {!Slx_sim.Driver.random_by}. *)
