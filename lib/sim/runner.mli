(** Executing an implementation under a driver.

    This is the composition [A_I1 x ... x A_In x A_B] of the paper made
    executable: [n] process algorithms sharing base objects, stepped
    one atomic action at a time by a driver. *)

open Slx_history

type ('inv, 'res) impl = proc:Proc.t -> 'inv -> 'res
(** An implementation: the algorithm run by process [proc] when it
    invokes [inv].  The body may call base-object primitives (which use
    {!Runtime.atomic}) any number of times, including zero, and may
    loop forever — the step budget bounds the run, not the algorithm.

    A fresh set of base objects must be created per run; implementations
    are therefore supplied as {e factories} to {!run}. *)

type ('inv, 'res) factory = n:int -> ('inv, 'res) impl
(** Creates a fresh instance of the implementation (fresh base objects,
    fresh per-process local state) for a system of [n] processes. *)

(** A resumable run: the step-and-snapshot API behind the incremental
    exploration engine.  A cursor holds one live instance of the
    implementation and extends it decision by decision; [report]
    snapshots the run so far without disturbing it.  Cursors cannot be
    forked (suspended processes are one-shot effect continuations);
    explorers re-establish sibling configurations by replaying their
    decision prefix into a fresh cursor.  The one exception is a crash
    that ends a run: a crash writes no base object, so {!crash} reads
    the run it ends off the parent, and no cursor is built for it.

    {b Lifecycle.}  A cursor exists only inside {!with_}, which disposes
    of it when its body returns or raises.  Disposal crashes every
    process, which discontinues each suspended continuation and so
    unwinds its fiber.  OCaml 5.1 never frees the fiber stack of a
    continuation that is dropped without being resumed or
    discontinued, so a cursor that is simply forgotten keeps its
    processes' stacks for the rest of the program, and an exhaustive
    walk forgets sibling cursors by the hundred thousand.  Disposal
    applies no decision: it ticks nothing, records no history event
    and runs outside the cursor's probe, so no count, digest
    or verdict depends on it.  A cursor that escapes its bracket
    (stored, returned, captured by a closure that outlives [f]) is a
    bug: after disposal every process is [Crashed] and the cursor no
    longer denotes the configuration its decisions reached. *)
module Cursor : sig
  type ('inv, 'res) t

  val with_ :
    n:int ->
    factory:('inv, 'res) factory ->
    ?ticks:int ref ->
    ?probe:Runtime.probe ->
    ?keyed:bool ->
    ?prefix:('inv, 'res) Driver.decision list ->
    (('inv, 'res) t -> 'a) ->
    'a
  (** [with_ ~n ~factory f] creates a cursor at the initial
      configuration of a fresh implementation instance, replays the
      decisions of [prefix] (default [[]]) in order, runs [f] on it and
      disposes of the cursor however [f] ends.  Replaying a prefix is
      how a configuration is re-established — since cursors cannot be
      forked — and how a lasso certificate's stem is reached (see
      {!Slx_liveness.Lasso}); a decision of [prefix] that is not
      applicable raises [Invalid_argument] as {!apply} does, and the
      cursor is disposed of all the same.

      {b The prefix contract.}  Prefix steps are ticked exactly as
      {!apply}'d ones are, but they are not probed: [probe] observes only decisions {!apply}'d after the
      prefix, so after [with_ ~prefix] it still holds whatever it held
      before.  An engine that needs the observation of the edge into
      a configuration replays the prefix without that edge and
      {!apply}s it.  A keyed cursor's replay folds each event into its
      history digest as {!apply} does.

      [ticks] (default: a private counter) is incremented on every
      applied decision, [prefix] included — explorers share one
      counter across many cursors to measure runtime steps executed.

      [probe] installs a dynamic-conflict probe
      ({!Runtime.make_probe}) around every {!apply} (not around the
      prefix): after a
      [Schedule] grant, the probe holds the executed step's observed
      accesses, from which the DPOR engines compute race reversals.
      Engines share one probe across all of their cursors (only the
      last completed step is retained).

      [keyed] (default [true]) says whether the cursor keeps the
      digests its configuration keys are made of: the shared-state
      digest ({!Runtime.registry_digest}), each process's observation
      digest ({!Runtime.obs}) and the history digest, which every
      history append extends by the event's {!Runtime.hash_value}
      ({!Runtime.combine}).  It is for the library's
      own walks.  A keyless cursor ([~keyed:false]) runs the same
      decisions to the same views and reports, with the same ids and
      the same duplicate-registration check, but stores and calls no
      state reader, queues no written object and hashes no atomic
      result or event; {!compact_key}, {!shared_digest},
      {!shared_digest_full} and {!crash_key} raise [Invalid_argument]
      on it.  The explorers'
      cursors are keyed exactly when their search keeps a transposition
      table; {!run} and {!Slx_liveness.Lasso.pump} are keyless. *)

  val view : ('inv, 'res) t -> ('inv, 'res) Driver.view
  (** The driver-visible view of the current configuration.  Its
      per-process [invocations] and [events] counts are counters the
      cursor bumps on every history append (prefix replay included),
      not scans of the history, so a workload's next invocation index
      and the symmetry filter's "untouched" test cost O(1) per node.
      Its four per-process readers are built once per cursor, so a view
      costs one record. *)

  val apply : ('inv, 'res) t -> ('inv, 'res) Driver.decision -> unit
  (** Extend the run by one decision (one scheduler tick).  Decisions
      are validated exactly as in {!run}; applying [Driver.Stop] raises
      [Invalid_argument]. *)

  val detach : ('inv, 'res) t -> unit
  (** [detach c] drops [c]'s [probe]: every later {!apply} runs as on
      a cursor created without it, so it is not observed.  For a
      cursor its walk is done with, which a certificate pump then
      carries on from ({!Slx_liveness.Lasso.pump_from}). *)

  val report :
    ('inv, 'res) t ->
    ?window:int ->
    ?stopped:[ `Driver_stop | `Max_steps | `Quiescent ] ->
    unit ->
    ('inv, 'res) Run_report.t
  (** Snapshot the run so far as a {!Run_report} (default [window]:
      half the elapsed time, at least 1; default [stopped]:
      [`Max_steps]).  The cursor remains usable. *)

  val compact_key : ('inv, 'res) t -> extra:int list -> int array
  (** The identity of the current configuration, the explorers'
      transposition key: [[| time; history digest; shared digest;
      (steps << 2 | status), obs digest per process 1..n; extra... |]],
      where the shared digest is {!shared_digest}, each process's
      observation digest is {!Runtime.obs} and the history digest
      folds every event's {!Runtime.hash_value} in order (see
      [keyed] in {!with_}).  The crash set is carried by the
      per-process status codes.  Two cursors with equal keys have (up
      to collision of the 64-bit digests) identical histories, process
      statuses and local states, and base-object states — hence
      identical futures under identical subsequent decisions.  They
      may still differ in the {e timing} of past events ([Run_report.event_times] and grant times), which the key
      deliberately abstracts away; see {!Slx_core.Explore} for the
      resulting caveat.  [extra] appends engine-specific key
      components (e.g. the DPOR sleep set's process ids).
      Raises [Invalid_argument] on a keyless cursor. *)

  val shared_digest : ('inv, 'res) t -> int
  (** The shared-state digest of the current configuration
      ({!Slx_sim.Runtime.registry_digest} of the cursor's registry):
      the incrementally maintained digest {!compact_key} embeds.
      Raises [Invalid_argument] on a keyless cursor. *)

  val shared_digest_full : ('inv, 'res) t -> int
  (** The same digest recomputed from scratch
      ({!Slx_sim.Runtime.registry_digest_full}); equals
      {!shared_digest} unless a base-object mutation bypassed the
      write-touch contract.  For tests.  Raises
      [Invalid_argument] on a keyless cursor. *)

  (** {2 A crash decided at its parent}

      A crash writes no base object and moves no other process, so the
      configuration [apply c (Driver.Crash p)] reaches is [c]'s with
      the clock one later, [Event.Crash p] appended at [c]'s time, and
      [p] [Crashed] with one more event.  The explorers read a crash
      child off its parent's cursor this way, without building or
      replaying one.  [crash_view] and the functions below are kept
      beside {!apply}'s crash arm; test/test_kernel.ml compares them
      with the applied crash at every node of small walks. *)

  val crash_view : ('inv, 'res) t -> Proc.t -> ('inv, 'res) Driver.view
  (** [crash_view c p] is the {!view} [apply c (Driver.Crash p)] would
      leave: [time] one later, [Event.Crash p] appended to the history,
      [p] [Crashed] with one more event, and everything else as it is.
      [c] does not move, and the view reads [c]'s processes, so it
      holds only while [c] stays where it is.
      Raises [Invalid_argument] if [p] has crashed already. *)

  type ('inv, 'res) crash
  (** The run [apply c (Driver.Crash p)] would reach, as a snapshot of
      [c]: it stays valid after [c] moves on. *)

  val crash : ('inv, 'res) t -> Proc.t -> ('inv, 'res) crash
  (** [crash c p] snapshots [c] for the crash of [p]: its persistent
      history, event times, grants and crash set, and, on a keyed
      cursor, its {!compact_key} without extra components (a keyless
      one builds no key).  [c] does not move.
      Raises [Invalid_argument] if [p] has crashed already. *)

  val crash_report :
    ('inv, 'res) crash ->
    ?window:int ->
    ?stopped:[ `Driver_stop | `Max_steps | `Quiescent ] ->
    unit ->
    ('inv, 'res) Run_report.t
  (** The {!report} of the cursor after the crash: the history plus
      [Event.Crash p] at the parent's time, the crash set plus [p],
      [total_time] one later, the grants as they were.  Defaults as in
      {!report}. *)

  val crash_key : ('inv, 'res) crash -> extra:int list -> int array
  (** The {!compact_key} of the cursor after the crash: [time] one
      later, the history digest extended by [Event.Crash p] as the
      applied crash would extend it, [p]'s status code [Crashed], and
      every other digest as at the parent.  Raises [Invalid_argument]
      on the snapshot of a keyless cursor. *)
end

val run :
  n:int ->
  factory:('inv, 'res) factory ->
  driver:('inv, 'res) Driver.t ->
  max_steps:int ->
  ?window:int ->
  unit ->
  ('inv, 'res) Run_report.t
(** [run ~n ~factory ~driver ~max_steps ()] plays [driver] against a
    fresh instance of the implementation for at most [max_steps]
    scheduler ticks and returns the {!Run_report}.

    [window] (default [max_steps / 2]) is the observation-window length
    recorded in the report.

    Driver decisions are validated: scheduling a non-ready process,
    invoking a non-idle or crashed process, or crashing an
    already-crashed process raise [Invalid_argument] — drivers must
    consult the view. *)

val history :
  n:int ->
  factory:('inv, 'res) factory ->
  driver:('inv, 'res) Driver.t ->
  max_steps:int ->
  ('inv, 'res) History.t
(** Convenience: just the history of such a run. *)
