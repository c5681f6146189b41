type t = {
  ob_tracing : bool;
  ob_capacity : int;
  mutable ob_ring : Telemetry.ring option;
  ob_progress : Progress.t;
}

let create ?(tracing = false) ?(ring_capacity = 65536) ?(progress = Progress.off)
    () =
  {
    ob_tracing = tracing;
    ob_capacity = ring_capacity;
    ob_ring = None;
    ob_progress = progress;
  }

let disabled = create ()

let tracing t = t.ob_tracing
let progress t = t.ob_progress

let sink t =
  if not t.ob_tracing then Telemetry.null
  else begin
    let r = Telemetry.ring ~capacity:t.ob_capacity () in
    t.ob_ring <- Some r;
    Telemetry.sink_of_ring r
  end

let events t = Option.fold ~none:[] ~some:Telemetry.ring_events t.ob_ring

let events_dropped t = Option.fold ~none:0 ~some:Telemetry.ring_dropped t.ob_ring

let write_trace t path =
  Out_channel.with_open_bin path (fun oc ->
      Trace_export.write oc ~events_dropped:(events_dropped t) (events t))
