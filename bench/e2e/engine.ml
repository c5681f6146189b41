(* In-process runs of one query, plain or traced.

   A traced run treats each layer as a black box: the benchmark wraps
   both stages of the implementation factory and the safety check in
   its own spans (on {!Slx_obs.Clock}, the clock the engine's telemetry
   uses), and takes node and pump spans from the engine's existing
   events.  Spans nest by the call stack, so a layer's self time is its
   span time minus its children's:

   - consensus = factory spans + check spans (a factory call inside a
     pump counts here, not to liveness);
   - liveness = pump spans minus the factory spans inside them;
   - core / live = outermost node spans minus the pump, factory and
     check spans inside them.

   The union of all spans should cover the engine's own [elapsed_ns]
   (within 5%, see {!reconcile}). *)

open Slx_core
module Clock = Slx_obs.Clock
module Obs = Slx_obs.Obs
module Telemetry = Slx_obs.Telemetry

type run = { outcome : string; stats : Explore_stats.t }

(* One query through the library, with the CLI's engine flags. *)
let call ?(obs = Obs.disabled) ?factory ?(check = Spec.check) (s : Spec.t) =
  let factory = Option.value factory ~default:(Spec.factory s) in
  match s.kind with
  | Spec.Explore ->
      let e =
        Explore.explore ~n:s.n ~factory ~invoke:Spec.safety_invoke
          ~depth:s.depth ~max_crashes:s.crashes ~cache:true ~por:true
          ~dpor:true ~symmetry:true ~domains:1 ~obs ~compact:true ~check ()
      in
      {
        outcome =
          (match e.Explore.outcome with
          | Explore.Ok _ -> "ok"
          | Explore.Counterexample _ -> "counterexample");
        stats = e.Explore.stats;
      }
  | Spec.Live ->
      let r =
        Live_explore.search ~n:s.n ~factory ~invoke:Spec.live_invoke
          ~good:(fun _ -> true)
          ~point:(Spec.point s) ~depth:s.depth ~max_crashes:s.crashes
          ?max_period:s.max_period ?pump_ticks:s.pump ~invoke_order:false
          ~dpor:true ~cache:true ~compact:true ~obs ()
      in
      {
        outcome =
          (match r.Live_explore.outcome with
          | Live_explore.No_fair_cycle -> "no_fair_cycle"
          | Live_explore.Lasso _ -> "lasso");
        stats = r.Live_explore.stats;
      }

(* ------------------------------------------------------------------ *)
(* Traced runs.                                                        *)

type spans = {
  mutable factory : (int * int) list;  (** Newest first. *)
  mutable check : (int * int) list;
  mutable factory_calls : int;
}

let wrap_factory sp (f : Spec.factory) : Spec.factory =
 fun () ->
  let t0 = Clock.now_ns () in
  let g = f () in
  sp.factory <- (t0, Clock.now_ns ()) :: sp.factory;
  sp.factory_calls <- sp.factory_calls + 1;
  fun ~n ->
    let t0 = Clock.now_ns () in
    let impl = g ~n in
    sp.factory <- (t0, Clock.now_ns ()) :: sp.factory;
    impl

let wrap_check sp check r =
  let t0 = Clock.now_ns () in
  let ok = check r in
  sp.check <- (t0, Clock.now_ns ()) :: sp.check;
  ok

type breakdown = {
  factory_ns : int;
  factory_calls : int;
  check_ns : int;
  check_calls : int;
  node_self_ns : int;
  pump_self_ns : int;
  pumps : int;
  pumps_accepted : int;
  node_spans : int;
  covered_ns : int;  (** Union of all spans. *)
}

let dur (a, b) = b - a
let total spans = List.fold_left (fun acc s -> acc + dur s) 0 spans

(* Total duration of the [spans] that lie inside one of [outer]; both
   lists are chronological and [outer] is disjoint. *)
let inside spans outer =
  let rec go acc spans outer =
    match (spans, outer) with
    | [], _ | _, [] -> acc
    | ((a, b) as s) :: rest, (lo, hi) :: orest ->
        if a > hi then go acc spans orest
        else if a >= lo && b <= hi then go (acc + dur s) rest outer
        else go acc rest outer
  in
  go 0 spans outer

let breakdown sp events =
  let depth = ref 0 and top_start = ref 0 and pump_start = ref 0 in
  let tops = ref [] and pumps = ref [] in
  let nodes = ref 0 and accepted = ref 0 in
  List.iter
    (fun (e : Telemetry.event) ->
      match e.ev_kind with
      | Telemetry.Node_enter ->
          if !depth = 0 then top_start := e.ev_ns;
          incr depth;
          incr nodes
      | Telemetry.Node_leave ->
          decr depth;
          if !depth = 0 then tops := (!top_start, e.ev_ns) :: !tops
      | Telemetry.Pump_start -> pump_start := e.ev_ns
      | Telemetry.Pump_verdict ->
          pumps := (!pump_start, e.ev_ns) :: !pumps;
          if e.ev_b = 1 then incr accepted
      | _ -> ())
    events;
  let tops = List.rev !tops and pumps = List.rev !pumps in
  let fs = List.rev sp.factory and cs = List.rev sp.check in
  let f_all = total fs and c_all = total cs in
  let f_pump = inside fs pumps in
  let f_node = inside fs tops and c_node = inside cs tops in
  let p_all = total pumps and n_all = total tops in
  {
    factory_ns = f_all;
    factory_calls = sp.factory_calls;
    check_ns = c_all;
    check_calls = List.length cs;
    node_self_ns = n_all - p_all - (f_node - f_pump) - c_node;
    pump_self_ns = p_all - f_pump;
    pumps = List.length pumps;
    pumps_accepted = !accepted;
    node_spans = !nodes;
    covered_ns = n_all + (f_all - f_node) + (c_all - c_node);
  }

(* Ring sized from a known node count.  The ring is allocated inside
   the engine's clock but outside every span, so a generous ring (16
   slots a node) shows up as a reconciliation gap of several ms on
   large searches; nodes emit 3-5 events on these workloads. *)
let ring_capacity ~nodes = (6 * nodes) + 4096

let traced ~nodes s =
  let sp = { factory = []; check = []; factory_calls = 0 } in
  let obs = Obs.create ~tracing:true ~ring_capacity:(ring_capacity ~nodes) () in
  let r =
    call ~obs
      ~factory:(wrap_factory sp (Spec.factory s))
      ~check:(wrap_check sp Spec.check) s
  in
  (r, breakdown sp (Obs.events obs), Obs.events_dropped obs)

(* Problems with one traced query, if any: spans that disagree with the
   engine's counters (deterministic), and layers whose self times miss
   the engine's own clock by more than 5%, or 1 ms for queries under
   20 ms, where a single scheduler or collector pause outside every
   span is larger than 5% (a matter of timing). *)
let reconcile (r : run) b ~dropped =
  let st = r.stats in
  let elapsed = st.Explore_stats.elapsed_ns in
  let gap = abs (elapsed - b.covered_ns) in
  let counters =
    List.filter_map Fun.id
      [
        (if b.node_spans <> st.Explore_stats.nodes then
           Some
             (Printf.sprintf "node spans %d <> nodes %d" b.node_spans
                st.Explore_stats.nodes)
         else None);
        (if b.pumps <> st.Explore_stats.fair_cycles then
           Some
             (Printf.sprintf "pump spans %d <> fair_cycles %d" b.pumps
                st.Explore_stats.fair_cycles)
         else None);
        (if dropped <> 0 then Some (Printf.sprintf "%d events dropped" dropped)
         else None);
      ]
  in
  let coverage =
    if float_of_int gap > Float.max 1e6 (0.05 *. float_of_int elapsed) then
      [ Printf.sprintf "layers cover %d ns of %d ns engine time" b.covered_ns elapsed ]
    else []
  in
  (counters, coverage)

(* Fold one traced query into the run's per-layer totals. *)
let account acc (s : Spec.t) (r : run) b ~dropped =
  let module M = Metrics in
  let st = r.stats in
  let sec ns = 1e-9 *. float_of_int ns in
  M.addi acc "consensus.factory_calls" b.factory_calls;
  M.add acc "consensus.factory_s" (sec b.factory_ns);
  M.addi acc "consensus.check_calls" b.check_calls;
  M.add acc "consensus.check_s" (sec b.check_ns);
  M.addi acc "sim.steps" st.Explore_stats.steps_executed;
  M.addi acc "sim.steps_replayed" st.Explore_stats.steps_replayed;
  M.add acc "_engine_s" (sec st.Explore_stats.elapsed_ns);
  M.add acc "_covered_s" (sec b.covered_ns);
  M.addi acc "obs.events_dropped" dropped;
  match s.Spec.kind with
  | Spec.Explore ->
    M.add acc "core.self_s" (sec b.node_self_ns);
    M.addi acc "_core_steps" st.Explore_stats.steps_executed;
    M.addi acc "core.nodes" st.Explore_stats.nodes;
    M.addi acc "core.runs_checked" st.Explore_stats.runs_checked;
    M.addi acc "core.cache_hits" st.Explore_stats.cache_hits;
    M.addi acc "core.cache_entries" st.Explore_stats.cache_entries;
    M.addi acc "core.por_prunes" st.Explore_stats.por_prunes;
    M.addi acc "core.race_reversals" st.Explore_stats.race_reversals;
    M.addi acc "core.symmetry_pruned" st.Explore_stats.symmetry_pruned
  | Spec.Live ->
    M.add acc "live.self_s" (sec b.node_self_ns);
    M.addi acc "live.nodes" st.Explore_stats.nodes;
    M.addi acc "live.cycles_examined" st.Explore_stats.cycles_examined;
    M.addi acc "live.fair_cycles" st.Explore_stats.fair_cycles;
    M.addi acc "live.cache_hits" st.Explore_stats.cache_hits;
    M.addi acc "live.cache_entries" st.Explore_stats.cache_entries;
    M.addi acc "live.proviso_wakes" st.Explore_stats.proviso_wakes;
    M.addi acc "liveness.pump_calls" b.pumps;
    M.addi acc "_pumps_accepted" b.pumps_accepted;
    M.add acc "liveness.pump_s" (sec b.pump_self_ns)

(* Trace one query, fold it into [acc], and return the traced run with
   its reconciliation problems: (counter mismatches, coverage misses).
   A query that fails reconciliation is traced once more before that
   counts: a pause of the whole machine outside every span does not
   repeat, a gap in the accounting does. *)
let trace acc s ~nodes =
  let once () =
    let r, b, dropped = traced ~nodes s in
    (r, b, dropped, reconcile r b ~dropped)
  in
  let r, b, dropped, problems =
    match once () with (_, _, _, ([], [])) as clean -> clean | _ -> once ()
  in
  account acc s r b ~dropped;
  (r, problems)
