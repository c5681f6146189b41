(** Chrome trace-event export and validation.

    {!write} serializes telemetry events to the Chrome
    trace-event JSON-object format, loadable in [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}:

    - [Node_enter]/[Node_leave] and [Pump_start]/[Pump_verdict] become
      duration ([B]/[E]) span pairs, so each ring's lane shows the
      nested decision-tree walk and the pump validations inside it;
    - everything else becomes thread-scoped instant events carrying
      their payload in [args].

    Timestamps are shifted so the earliest event is at 0 and emitted in
    microseconds.  The ring-overflow count is recorded under
    [otherData.events_dropped].

    {!validate} is the inverse sanity check used by the bench smoke
    and the test suite: it re-parses an exported trace, replays the
    span discipline (every [B] is closed by a matching [E], per lane),
    and returns the per-name event counts so callers can
    reconcile a trace against the {!Slx_core.Explore_stats} record of
    the run that produced it. *)

val write :
  out_channel -> ?name:string -> events_dropped:int -> Telemetry.event list ->
  unit
(** [write oc ~events_dropped events] writes one trace-event JSON
    object.  [name] (default ["slx"]) is the displayed process name.
    [events] must be in emission order per lane (as {!Obs.events}
    returns them). *)

val to_string :
  ?name:string -> events_dropped:int -> Telemetry.event list -> string

type summary = {
  sm_events : int;  (** Trace events, metadata records excluded. *)
  sm_spans : (string * int) list;  (** Completed span count per name. *)
  sm_instants : (string * int) list;  (** Instant count per name. *)
  sm_lanes : int;  (** Distinct (pid, tid) lanes. *)
  sm_dropped : int;  (** [otherData.events_dropped]. *)
}

val validate : Json.t -> (summary, string) result
(** Check a parsed trace: structure, span balance per lane, timestamp
    presence.  Returns the counts on success, a
    diagnostic on the first violation. *)

val span_count : summary -> string -> int

val instant_count : summary -> string -> int
