(** The Chrome trace format of telemetry events: written, and read
    back typed.

    {!write} serializes telemetry events to the Chrome trace-event
    JSON-object format, loadable in [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}:

    - [Node_enter]/[Node_leave] and [Pump_start]/[Pump_verdict] become
      duration ([B]/[E]) span pairs, so the trace's one lane shows the
      nested decision-tree walk and the pump validations inside it;
    - everything else becomes thread-scoped instant events carrying
      their payload in [args].

    Timestamps are shifted so the earliest event is at 0 and emitted in
    microseconds.  The ring-overflow count is recorded under
    [otherData.events_dropped].

    {!read} is the inverse: it turns a trace back into the events,
    refusing anything slx does not write.  This module is the one
    place that spells a kind's trace name and argument names: both
    directions are driven by {!descriptors}. *)

type descriptor = {
  kind : Telemetry.kind;
  name : string;  (** The record's ["name"]; a span's two ends share it. *)
  cat : string;  (** Its ["cat"]. *)
  ph : string;  (** Its ["ph"]: ["B"] span open, ["E"] close, ["i"] instant. *)
  a : string;  (** The [args] member carrying [ev_a]. *)
  b : string option;
      (** The [args] member carrying [ev_b]; [None]: not written, read
          back as 0.  A [Decision]'s code is written as a string,
          ["S1"], ["I2"] or ["C3"]: the decision's tag (schedule,
          invoke, crash), then its process. *)
}

val descriptors : descriptor list
(** One per {!Telemetry.kind}, in the type's order. *)

val write :
  out_channel -> ?name:string -> events_dropped:int -> Telemetry.event list ->
  unit
(** [write oc ~events_dropped events] writes one trace-event JSON
    object.  [name] (default ["slx"]) is the displayed process name.
    [events] must be in emission order (as {!Obs.events} returns
    them). *)

val to_string :
  ?name:string -> events_dropped:int -> Telemetry.event list -> string

type trace = { events : Telemetry.event list; events_dropped : int }

val read : string -> (trace, string) result
(** Parse a trace {!write} made: its events in file order, times in ns
    from the first event, and [otherData.events_dropped].  A diagnostic
    on the first record whose name and phase no descriptor has, whose
    field or argument is missing, or whose pid or tid is not the one
    slx writes (pid 1, tid 0), on a span end that does not close the
    innermost open span of its name, and on spans left open. *)
