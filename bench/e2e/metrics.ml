(* The metric catalogue and the result line.

   BENCHMARK.json publishes the same names, units and bounds; the smoke
   test fails when the two drift apart. *)

type e2e = { name : string; unit_ : string; bound : float }

(* [bound]: the share of the parent's median by which the metric may
   worsen before a change counts as a regression (all are "lower is
   better").  The timing bounds are the largest allowed: on a shared
   2-vCPU host, timings scaled to reference speed still spread by up to
   0.13 (IQR / median) over ten seeds; see README.md. *)
let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; bound = 0.25 };
    { name = "wall_s"; unit_ = "s"; bound = 0.25 };
    { name = "query_p50_ms"; unit_ = "ms"; bound = 0.25 };
    { name = "query_p90_ms"; unit_ = "ms"; bound = 0.25 };
    { name = "peak_rss_mb"; unit_ = "MB"; bound = 0.1 };
  ]

(* Per-layer metrics: totals over the run unless a ratio. *)
let per_layer =
  [
    ("consensus.factory_calls", "count");
    ("consensus.factory_s", "s");
    ("consensus.factory_share", "ratio");
    ("consensus.check_calls", "count");
    ("consensus.check_s", "s");
    ("sim.steps", "count");
    ("sim.steps_replayed", "count");
    ("sim.replay_share", "ratio");
    ("core.self_s", "s");
    ("core.self_ns_per_step", "ns");
    ("core.nodes", "count");
    ("core.runs_checked", "count");
    ("core.cache_hits", "count");
    ("core.cache_hit_ratio", "ratio");
    ("core.cache_entries", "count");
    ("core.por_prunes", "count");
    ("core.race_reversals", "count");
    ("core.symmetry_pruned", "count");
    ("live.nodes", "count");
    ("live.cycles_examined", "count");
    ("live.fair_cycles", "count");
    ("live.cache_hits", "count");
    ("live.cache_hit_ratio", "ratio");
    ("live.cache_entries", "count");
    ("live.proviso_wakes", "count");
    ("live.self_s", "s");
    ("liveness.pump_calls", "count");
    ("liveness.pump_s", "s");
    ("liveness.pump_accept_ratio", "ratio");
    ("cli.process_floor_ms", "ms");
    ("cli.engine_share", "ratio");
    ("store.bytes", "bytes");
    ("store.records", "count");
    ("store.warm", "count");
    ("store.resumed", "count");
    ("store.cold", "count");
    ("store.rejected", "count");
    ("store.steps_saved", "count");
    ("store.open_s", "s");
    ("store.commit_s", "s");
    ("serve.warm_p50_ms", "ms");
    ("serve.warm_p90_ms", "ms");
    ("serve.computed_p50_ms", "ms");
    ("serve.overhead_p50_ms", "ms");
    ("serve.response_kb_p50", "KB");
    ("serve.split_share", "ratio");
    ("serve.dedup_hits", "count");
    ("serve.re_leases", "count");
    ("serve.timeouts", "count");
    ("obs.trace_overhead", "ratio");
    ("obs.events_dropped", "count");
  ]

(* ------------------------------------------------------------------ *)
(* Accumulating a run.                                                 *)

(* Named running totals.  Ratios are derived in {!layer_values} from
   totals, some of them internal (prefixed "_"). *)
type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 64
let get (a : acc) k = Option.value ~default:0. (Hashtbl.find_opt a k)
let add (a : acc) k v = Hashtbl.replace a k (get a k +. v)
let addi a k v = add a k (float_of_int v)
let set (a : acc) k v = Hashtbl.replace a k v

let ratio a num den = if get a den = 0. then 0. else get a num /. get a den

let layer_values (a : acc) =
  set a "consensus.factory_share" (ratio a "consensus.factory_s" "_engine_s");
  set a "sim.replay_share" (ratio a "sim.steps_replayed" "sim.steps");
  set a "core.self_ns_per_step" (1e9 *. ratio a "core.self_s" "_core_steps");
  set a "core.cache_hit_ratio" (ratio a "core.cache_hits" "core.nodes");
  set a "live.cache_hit_ratio" (ratio a "live.cache_hits" "live.nodes");
  set a "liveness.pump_accept_ratio"
    (ratio a "_pumps_accepted" "liveness.pump_calls");
  set a "cli.engine_share" (ratio a "_cli_engine_s" "_cli_wall_s");
  set a "obs.trace_overhead" (ratio a "_engine_s" "_untraced_engine_s");
  List.map (fun (name, unit_) -> (name, unit_, get a name)) per_layer

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

(* Full precision: two runs must not print identical timings by
   rounding. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v)
              unit_)
          r.metrics))

let of_json line =
  let module J = Slx_obs.Json in
  match J.parse line with
  | Error e -> Error e
  | Ok j -> (
      let mem k = J.member k j in
      match
        ( Option.bind (mem "correct") (function J.Bool b -> Some b | _ -> None),
          Option.bind (mem "attempted") J.int,
          Option.bind (mem "failed") J.int,
          mem "metrics" )
      with
      | Some correct, Some attempted, Some failed, Some (J.Obj ms) ->
          Ok
            {
              correct;
              attempted;
              failed;
              metrics =
                List.map
                  (fun (name, m) ->
                    ( name,
                      Option.value ~default:""
                        (Option.bind (J.member "unit" m) J.str),
                      Option.value ~default:nan
                        (Option.bind (J.member "value" m) J.num) ))
                  ms;
            }
      | _ -> Error "not a result line")

let pp_table oc ~title metrics =
  Printf.fprintf oc "%s\n" title;
  List.iter
    (fun (name, unit_, v) ->
      Printf.fprintf oc "  %-28s %14.6g %s\n" name v unit_)
    metrics
