(* lib-safety: in-process Explore.explore, one query after another.
   Each pass runs in a forked child, whose peak RSS ([wait4]) is the
   memory of the process that explored; explorations leave memory
   behind that the runtime never reclaims (see README.md), and the
   benchmark process itself stays small. *)

open Slx_core

(* Set-up: build the query list and one instance of each factory it
   uses.  It takes well under a millisecond, so a pass takes a hundred
   samples: fewer leave the median at the mercy of a few slow ones. *)
let prepare ctx make_queries =
  for _ = 1 to 100 do
    Run_ctx.setup ctx (fun () ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (q : Spec.t) ->
            let shape = (q.impl, q.n, q.rounds) in
            if not (Hashtbl.mem seen shape) then begin
              Hashtbl.add seen shape ();
              ignore (Spec.factory q () ~n:q.n : _ Slx_sim.Runner.impl)
            end)
          (make_queries ()))
  done

let same_counters (a : Explore_stats.t) (b : Explore_stats.t) =
  a.runs = b.runs && a.nodes = b.nodes && a.steps_executed = b.steps_executed
  && a.steps_replayed = b.steps_replayed && a.cache_hits = b.cache_hits
  && a.history_digest = b.history_digest

let run ctx make_queries =
  let queries = make_queries () in
  let one (q : Spec.t) =
    let q0 = Os.now_s () in
    let r = Engine.call q in
    let latency_s = Os.now_s () -. q0 in
    let expected = Spec.expected q in
    let problem =
      if r.Engine.outcome <> expected then
        [ Printf.sprintf "outcome %s, expected %s" r.Engine.outcome expected ]
      else if ctx.Run_ctx.traced then begin
        let l = ctx.Run_ctx.layers in
        let t, (counters, misses) = Engine.trace l q ~nodes:r.Engine.stats.nodes in
        Metrics.add l "_untraced_engine_s"
          (1e-9 *. float_of_int r.Engine.stats.elapsed_ns);
        (if same_counters r.Engine.stats t.Engine.stats then []
         else [ "traced counters differ from untraced" ])
        @ counters @ Run_ctx.coverage ctx misses
      end
      else []
    in
    Run_ctx.answered ctx ~latency_s
      (match problem with
      | [] -> None
      | ps -> Some (Spec.to_string q ^ ": " ^ String.concat "; " ps))
  in
  let peak_rss_kb =
    Run_ctx.passes ~isolated:true ctx
      ~before:(fun () -> prepare ctx make_queries)
      queries one
  in
  Run_ctx.result ctx ~peak_rss_kb
