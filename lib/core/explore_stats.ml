type t = {
  nodes : int;
  runs : int;
  runs_checked : int;
  steps_executed : int;
  steps_replayed : int;
  replays_avoided : int;
  cache_hits : int;
  cache_entries : int;
  por_prunes : int;
  race_reversals : int;
  invoke_order_prunes : int;
  proviso_wakes : int;
  symmetry_pruned : int;
  cycles_examined : int;
  fair_cycles : int;
  elapsed_ns : int;
  events_dropped : int;
  history_digest : int;
}

let zero =
  {
    nodes = 0;
    runs = 0;
    runs_checked = 0;
    steps_executed = 0;
    steps_replayed = 0;
    replays_avoided = 0;
    cache_hits = 0;
    cache_entries = 0;
    por_prunes = 0;
    race_reversals = 0;
    invoke_order_prunes = 0;
    proviso_wakes = 0;
    symmetry_pruned = 0;
    cycles_examined = 0;
    fair_cycles = 0;
    elapsed_ns = 0;
    events_dropped = 0;
    history_digest = 0;
  }

let pp_elapsed fmt ns =
  if ns >= 1_000_000_000 then
    Format.fprintf fmt "%.2f s" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Format.fprintf fmt "%.2f ms" (float_of_int ns /. 1e6)
  else Format.fprintf fmt "%.1f us" (float_of_int ns /. 1e3)

let pp fmt s =
  Format.fprintf fmt
    "@[<v>nodes visited:    %d@,maximal runs:     %d (checked: %d)@,\
     steps executed:   %d (replayed: %d)@,replays avoided:  %d@,\
     cache:            %d hits / %d entries@,\
     reductions:       %d pruned (POR), %d pruned (symmetry)@,\
     elapsed:          %a"
    s.nodes s.runs s.runs_checked s.steps_executed s.steps_replayed
    s.replays_avoided s.cache_hits s.cache_entries s.por_prunes
    s.symmetry_pruned pp_elapsed s.elapsed_ns;
  if s.race_reversals > 0 || s.invoke_order_prunes > 0 || s.proviso_wakes > 0
  then
    Format.fprintf fmt
      "@,dpor:             %d race reversals, %d proviso wakes, %d \
       invoke-order prunes"
      s.race_reversals s.proviso_wakes s.invoke_order_prunes;
  if s.cycles_examined > 0 || s.fair_cycles > 0 then
    Format.fprintf fmt "@,cycles:           %d examined, %d fair violating"
      s.cycles_examined s.fair_cycles;
  if s.events_dropped > 0 then
    Format.fprintf fmt "@,telemetry:        %d events dropped (ring overflow)"
      s.events_dropped;
  Format.fprintf fmt "@]"

let to_json s =
  Printf.sprintf
    "{\"nodes\": %d, \"runs\": %d, \"runs_checked\": %d, \
     \"steps_executed\": %d, \"steps_replayed\": %d, \
     \"replays_avoided\": %d, \"cache_hits\": %d, \"cache_entries\": %d, \
     \"por_prunes\": %d, \"race_reversals\": %d, \
     \"invoke_order_prunes\": %d, \"proviso_wakes\": %d, \
     \"symmetry_pruned\": %d, \
     \"cycles_examined\": %d, \"fair_cycles\": %d, \"elapsed_ns\": %d, \
     \"events_dropped\": %d, \"history_digest\": %d}"
    s.nodes s.runs s.runs_checked s.steps_executed s.steps_replayed
    s.replays_avoided s.cache_hits s.cache_entries s.por_prunes
    s.race_reversals s.invoke_order_prunes s.proviso_wakes
    s.symmetry_pruned s.cycles_examined s.fair_cycles
    s.elapsed_ns s.events_dropped s.history_digest
