(* cli-safety and cli-liveness: one fresh `slx ... --json` process per
   query, one child at a time, timed from spawn to reaped. *)

module Json = Slx_obs.Json
open Slx_core

let find_sub text pat =
  let pl = String.length pat in
  let rec go i =
    if i + pl > String.length text then None
    else if String.sub text i pl = pat then Some (i + pl)
    else go (i + 1)
  in
  go 0

(* [history_digest] is a full 63-bit integer, beyond a float's exact
   range, so counters are read from the text rather than through
   {!Json}. *)
let int_field text key =
  Option.bind (find_sub text (Printf.sprintf "\"%s\": " key)) (fun i ->
      let j = ref i in
      while
        !j < String.length text
        && (text.[!j] = '-' || (text.[!j] >= '0' && text.[!j] <= '9'))
      do
        incr j
      done;
      int_of_string_opt (String.sub text i (!j - i)))

(* The record's "stats" object (the top level repeats "runs"). *)
let stats_text text =
  match find_sub text "\"stats\": " with
  | Some i -> String.sub text i (String.length text - i)
  | None -> ""

(* Set-up is a process start: `slx --version`, ten times a pass. *)
let start_process ctx =
  for _ = 1 to 10 do
    let c = Run_ctx.setup ctx (fun () -> Os.run ~timeout_s:30. [| Os.slx_bin; "--version" |]) in
    if c.Os.exit <> 0 then Run_ctx.note ctx "slx --version failed"
  done

(* The in-process replica of one CLI query must reproduce its record. *)
let replica ctx (q : Spec.t) out =
  let text = stats_text out in
  let nodes = Option.value ~default:0 (int_field text "nodes") in
  let r, (counters, misses) = Engine.trace ctx.Run_ctx.layers q ~nodes in
  let st = r.Engine.stats in
  let mismatches =
    List.filter_map
      (fun (key, mine) ->
        match int_field text key with
        | Some cli when cli = mine -> None
        | cli ->
            Some
              (Printf.sprintf "%s: cli %s, replica %d" key
                 (Option.fold ~none:"-" ~some:string_of_int cli)
                 mine))
      [
        ("runs", st.Explore_stats.runs);
        ("nodes", st.Explore_stats.nodes);
        ("steps_executed", st.Explore_stats.steps_executed);
        ("steps_replayed", st.Explore_stats.steps_replayed);
        ("cache_hits", st.Explore_stats.cache_hits);
        ("history_digest", st.Explore_stats.history_digest);
      ]
  in
  Metrics.add ctx.Run_ctx.layers "_untraced_engine_s"
    (1e-9 *. float_of_int (Option.value ~default:0 (int_field text "elapsed_ns")));
  mismatches @ counters @ Run_ctx.coverage ctx misses

let run ctx queries =
  let peak = ref 0 and floors_ms = ref [] in
  let one (q : Spec.t) =
    let c =
      Os.run ~timeout_s:(Run_ctx.timeout ctx)
        (Array.of_list (Os.slx_bin :: Spec.cli_args q))
    in
    peak := max !peak c.Os.maxrss_kb;
    let expected = Spec.expected q in
    let problem =
      match Json.parse (String.trim c.Os.out) with
      | _ when c.Os.exit <> 0 -> Some (Printf.sprintf "exit %d" c.Os.exit)
      | Error e -> Some ("unparsable output: " ^ e)
      | Ok j -> (
          match Option.bind (Json.member "outcome" j) Json.str with
          | Some o when o = expected ->
              let engine_ns =
                Option.value ~default:0 (int_field (stats_text c.Os.out) "elapsed_ns")
              in
              let l = ctx.Run_ctx.layers in
              Metrics.add l "_cli_engine_s" (1e-9 *. float_of_int engine_ns);
              Metrics.add l "_cli_wall_s" c.Os.wall_s;
              floors_ms :=
                (1000. *. (c.Os.wall_s -. (1e-9 *. float_of_int engine_ns)))
                :: !floors_ms;
              if ctx.Run_ctx.traced then
                match replica ctx q c.Os.out with
                | [] -> None
                | errs -> Some (String.concat "; " errs)
              else None
          | o ->
              Some
                (Printf.sprintf "outcome %s, expected %s"
                   (Option.value ~default:"?" o)
                   expected))
    in
    Run_ctx.answered ctx ~latency_s:c.Os.wall_s
      (Option.map (fun p -> Spec.to_string q ^ ": " ^ p) problem)
  in
  ignore (Run_ctx.passes ctx ~before:(fun () -> start_process ctx) queries one : int);
  Metrics.set ctx.Run_ctx.layers "cli.process_floor_ms" (Stat.median !floors_ms);
  Run_ctx.result ctx ~peak_rss_kb:!peak
