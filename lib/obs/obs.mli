(** The engine-facing observability bundle.

    One [Obs.t] configures one exploration: whether tracing is on (and
    the ring's capacity) and which progress reporter to tick.  The
    engine calls {!sink} once when it starts — with tracing off this
    returns {!Telemetry.null} and the whole subsystem costs one branch
    per event site — and the CLI / bench harvest the events afterwards
    with {!events} / {!write_trace}.

    A bundle is single-shot: one exploration, one sink.  A second
    {!sink} call replaces the first ring, so create a fresh bundle per
    run. *)

type t

val disabled : t
(** No tracing, no progress: the default of every engine. *)

val create :
  ?tracing:bool -> ?ring_capacity:int -> ?progress:Progress.t -> unit -> t
(** [tracing] (default [false]) turns event recording on;
    [ring_capacity] (default [65536]) sizes the ring;
    [progress] (default {!Progress.off}) is the heartbeat reporter. *)

val tracing : t -> bool

val progress : t -> Progress.t

val sink : t -> Telemetry.sink
(** The exploration's sink: a fresh ring, registered with the bundle,
    when tracing; {!Telemetry.null} otherwise. *)

val events : t -> Telemetry.event list
(** The recorded events, in emission order. *)

val events_dropped : t -> int
(** Events lost to ring overflow. *)

val write_trace : t -> string -> unit
(** Export {!events} as Chrome trace-event JSON to the given path. *)
