(** Drivers: the external entity that schedules processes and chooses
    their inputs.

    The paper models scheduling by “an external entity called a
    scheduler over which processes have no control”, and its adversary
    sets (Definition 4.3) are played by “an adversary, which decides on
    a sequence of steps produced by a scheduler and on invocations sent
    to [the] implementation”.  A {!t} is exactly that entity: a
    function from the current {!view} of the run to the next
    {!decision}.  Fair schedulers, unfair schedulers and adversaries
    are all drivers; the adversaries of Sections 4 and 5 live in
    [Slx_consensus.Adversary] and [Slx_tm.Adversary]. *)

open Slx_history

(** What the driver can observe: the external history so far, process
    statuses, step counts and the clock.  Drivers cannot see base
    objects or local states — like the paper's adversary, they observe
    only external actions. *)
type ('inv, 'res) view = {
  time : int;
  n : int;
  history : ('inv, 'res) History.t;
  status : Proc.t -> Runtime.status;
  steps : Proc.t -> int;
  invocations : Proc.t -> int;
      (** Invocations process [p] has issued so far: the length of
          [history]'s invocation events of [p], kept as a counter by
          the run so that a workload's next index costs O(1). *)
  events : Proc.t -> int;
      (** History events of process [p] so far (its invocations,
          responses and crash): 0 exactly when [p] is untouched. *)
}

type ('inv, 'res) decision =
  | Schedule of Proc.t       (** Grant one atomic step to a ready process. *)
  | Invoke of Proc.t * 'inv  (** Make an idle process invoke. *)
  | Crash of Proc.t          (** Crash a process. *)
  | Stop                     (** End the run. *)

type ('inv, 'res) t = ('inv, 'res) view -> ('inv, 'res) decision
(** A driver.  Drivers may close over mutable state (they are consulted
    once per tick, in order). *)

(** {1 Workloads} *)

type ('inv, 'res) workload = Proc.t -> int -> 'inv option
(** [workload p k] is the [k]-th invocation (0-based) process [p]
    should issue, or [None] if [p] should stop invoking. *)

val forever : (Proc.t -> 'inv) -> ('inv, 'res) workload
(** Each process repeats the same invocation indefinitely. *)

val n_times : int -> (Proc.t -> int -> 'inv) -> ('inv, 'res) workload
(** Each process issues exactly [n] invocations. *)

(** {1 Schedulers} *)

val round_robin :
  ?procs:Proc.t list -> workload:('inv, 'res) workload -> unit ->
  ('inv, 'res) t
(** A fair scheduler cycling over [procs] (default: all [1..n]): grants
    a step to the next ready process in the cycle, issuing invocations
    from [workload] when a process is idle.  Stops when no process in
    [procs] is ready or can be invoked. *)

val random :
  ?procs:Proc.t list -> seed:int -> workload:('inv, 'res) workload -> unit ->
  ('inv, 'res) t
(** A scheduler picking uniformly at random (seeded, reproducible)
    among the eligible processes of [procs]. *)

val round_robin_by :
  ?procs:Proc.t list -> (('inv, 'res) view -> Proc.t -> 'inv option) ->
  ('inv, 'res) t
(** {!round_robin} for a protocol whose next invocation depends on the
    run so far: [next view p] is the invocation an idle process [p]
    issues next, or [None] if [p] should stop invoking.
    {!round_robin} is this with [next view p] the workload's
    [view.invocations p]-th invocation of [p]; the mutex and TM
    workload drivers derive [next] from [p]'s position in its
    protocol, kept by {!fold_procs}. *)

val random_by :
  ?procs:Proc.t list -> seed:int ->
  (('inv, 'res) view -> Proc.t -> 'inv option) -> ('inv, 'res) t
(** {!random} over a [next] function, as {!round_robin_by}. *)

val fold_procs :
  init:'s -> ('s -> ('inv, 'res) Event.t -> 's) -> unit ->
  ('inv, 'res) view -> Proc.t -> 's
(** [fold_procs ~init step ()] reads process [p]'s state in a run:
    [step] folded from [init] over [p]'s events so far.  The states
    are kept scheduler-side and each read folds only the events the
    run appended since the previous one, so a driver that reads a
    position per tick costs time linear in the run's length rather
    than re-projecting the history.  Like a driver, the reader belongs
    to one run: make a fresh one per driver. *)

val solo :
  Proc.t -> workload:('inv, 'res) workload -> ('inv, 'res) t
(** Runs a single process alone — the schedules under which
    obstruction-freedom ((1,1)-freedom) demands progress. *)

val of_script : ('inv, 'res) decision list -> ('inv, 'res) t
(** Replays a fixed decision list, then [Stop].  Used by the
    replay-based adversaries to re-create a configuration. *)

(** {1 Combinators} *)

val with_crashes : (int * Proc.t) list -> ('inv, 'res) t -> ('inv, 'res) t
(** [with_crashes [(t1,p1);...] d] behaves like [d] but crashes [p_i]
    at time [t_i] (failure injection). *)

val stop_after : int -> ('inv, 'res) t -> ('inv, 'res) t
(** Stops the run after the given number of ticks regardless of the
    underlying driver. *)
