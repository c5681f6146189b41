(* The counters half of a corpus entry: the command line, then every
   {!Slx_core.Explore_stats} field under its [--json] name, except the
   two that vary from run to run ([elapsed_ns], [events_dropped]).
   Both corpus drivers write these to the file named by their first
   argument, so a verdict file and a counters file move independently. *)

open Slx_core

let channel () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: <corpus>.exe COUNTERS-FILE";
    exit 2
  end;
  open_out Sys.argv.(1)

let print oc cmd (s : Explore_stats.t) =
  Printf.fprintf oc
    "%s\n\
    \  nodes %d runs %d runs_checked %d steps_executed %d steps_replayed %d \
     replays_avoided %d\n\
    \  cache_hits %d cache_entries %d por_prunes %d \
     race_reversals %d invoke_order_prunes %d proviso_wakes %d \
     symmetry_pruned %d\n\
    \  cycles_examined %d fair_cycles %d history_digest %d\n"
    cmd s.nodes s.runs s.runs_checked s.steps_executed s.steps_replayed
    s.replays_avoided s.cache_hits s.cache_entries s.por_prunes
    s.race_reversals s.invoke_order_prunes s.proviso_wakes
    s.symmetry_pruned s.cycles_examined s.fair_cycles s.history_digest
