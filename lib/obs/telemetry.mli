(** Typed engine events and low-overhead sinks.

    The exploration engines ({!Slx_core.Explore},
    {!Slx_core.Live_explore}) emit one {!event} per interesting action
    — node enter/leave, decision taken, cache hit, POR sleep,
    symmetry prune, cycle candidate, pump start/verdict — into a
    {!sink}.  Two sinks exist:

    - {!null} — the disabled default.  [emit] on it is a single branch
      on an immediate value: no clock read, no allocation, no write.
      Every emission site passes plain [int] arguments, so a disabled
      sink costs one predictable conditional per event site.
    - a {e ring sink} ({!ring}, {!sink_of_ring}) — a preallocated
      circular buffer with a single writer, one per exploration.
      When the ring is full the oldest events are overwritten and
      counted as {!ring_dropped}.

    Timestamps are wall-clock nanoseconds ({!Clock.now_ns}) clamped to
    be non-decreasing per ring.  {!Trace_export} is the one place
    that names the kinds and their arguments in a trace. *)

type kind =
  | Node_enter  (** a = depth; span open, paired with [Node_leave]. *)
  | Node_leave  (** a = depth; emitted on every exit, exceptions included. *)
  | Decision
      (** a = depth reached, b = the decision's code
          ({!Slx_core.Explore.code_of_decision}). *)
  | Run_checked  (** a = depth; a maximal run was checked. *)
  | Cache_hit  (** a = depth, b = runs credited from the entry. *)
  | Por_sleep  (** a = depth, b = decisions slept (sleep-set prune). *)
  | Race_reversal
      (** a = depth, b = sleepers woken by an observed conflict of the
          step just executed (DPOR race reversal). *)
  | Proviso_wake
      (** a = depth, b = sleepers woken without a race: dropped as the
          walk leaves the one node they sleep at, or force-woken where
          every enabled decision is asleep ({!Slx_core.Live_explore}). *)
  | Invoke_prune
      (** a = depth, b = invocations pruned by the invoke order
          ({!Slx_core.Live_explore}). *)
  | Symmetry_prune  (** a = depth, b = decisions pruned. *)
  | Cycle_candidate  (** a = period, b = 1 iff fair and violating. *)
  | Pump_start  (** a = period; span open, paired with [Pump_verdict]. *)
  | Pump_verdict  (** a = period, b = 1 iff the certificate pumped. *)

type event = {
  ev_ns : int;  (** Timestamp, ns (non-decreasing within a ring). *)
  ev_kind : kind;
  ev_a : int;
  ev_b : int;
}

type sink

val null : sink
(** The disabled sink: [emit] is a no-op costing one branch. *)

val enabled : sink -> bool

val emit : sink -> kind -> int -> int -> unit
(** [emit sink kind a b] records an event.  Arguments are plain ints
    precisely so that call sites allocate nothing when the sink is
    disabled. *)

(** {2 Ring sinks} *)

type ring

val ring : ?capacity:int -> unit -> ring
(** A fresh ring.  [capacity] (default [65536]) must be >= 1; when
    more events are emitted the oldest are overwritten and counted as
    dropped. *)

val sink_of_ring : ring -> sink

val ring_dropped : ring -> int
(** Events overwritten by wraparound ([max 0 (written - capacity)]). *)

val ring_events : ring -> event list
(** The retained events, oldest first. *)
