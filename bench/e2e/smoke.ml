(* The smoke subset run by `dune runtest`: two to five queries per
   workload, plain and traced, including a served round trip on a free
   port.  Checks every verdict, the traced run's deterministic
   reconciliation (replicas equal the CLI record, node spans = nodes,
   pump spans = fair_cycles, no dropped events, traced counters equal
   untraced), that each mode prints exactly its catalogue of metric
   names, and that BENCHMARK.json publishes the catalogue this code
   measures.  Whether span times cover the engine's clock depends on
   the machine's load, so here a miss is printed, not failed. *)

module Json = Slx_obs.Json
module W = Workloads

let queries = function
  | "cli-safety" ->
      [ Spec.explore "register" ~n:2 ~depth:8 ~crashes:1;
        Spec.explore "selfish" ~n:2 ~depth:6 ~crashes:0 ]
  | "lib-safety" ->
      [ Spec.explore ~rounds:10 "register" ~n:2 ~depth:10 ~crashes:1;
        Spec.explore "cas" ~n:3 ~depth:8 ~crashes:1 ]
  | "cli-liveness" ->
      [ Spec.live "register" "obstruction" ~n:2 ~depth:8 ~crashes:1;
        Spec.live "register" "1,2" ~n:2 ~depth:8 ~crashes:0;
        Spec.live "cas" "obstruction" ~n:2 ~depth:8 ~crashes:1 ]
  | w -> invalid_arg w

let session =
  let cas = Spec.explore "cas" ~n:2 ~depth:8 ~crashes:1 in
  let lasso = Spec.live "register" "1,2" ~n:2 ~depth:8 ~crashes:0 in
  [
    { W.role = W.Cold; spec = cas };
    { W.role = W.Warm 0; spec = cas };
    { W.role = W.Resume 0; spec = { cas with depth = 10 } };
    { W.role = W.Dedup; spec = lasso };
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); false) fmt

let check_run w ~traced =
  let r, notes, remarks =
    Harness.workload_run ~coverage_gate:false ~seconds:0. ~traced w
      ~queries:(fun () -> queries w)
      ~session:(fun () -> session)
  in
  List.iter (fun n -> print_endline ("smoke: " ^ w ^ ": note only: " ^ n)) remarks;
  Metrics.pp_table stdout
    ~title:(Printf.sprintf "%s (%s)" w (if traced then "traced" else "timed"))
    r.Metrics.metrics;
  let names = List.map (fun (n, _, _) -> n) r.Metrics.metrics in
  let want =
    if traced then List.map fst Metrics.per_layer
    else List.map (fun (e : Metrics.e2e) -> e.name) Metrics.end_to_end
  in
  let round_trip = Metrics.of_json (Metrics.to_json r) = Ok r in
  List.iter (fun n -> prerr_endline ("smoke: " ^ w ^ ": " ^ n)) notes;
  (r.Metrics.correct || fail "%s: incorrect" w)
  && (names = want || fail "%s: metric names differ from the catalogue" w)
  && (round_trip || fail "%s: result line does not round-trip" w)

(* BENCHMARK.json must list the workloads, and the metrics with the
   units and bounds, that this code defines. *)
let check_benchmark_json path =
  match Json.parse_file path with
  | Error e -> fail "%s: %s" path e
  | Ok j ->
      let list k = Json.to_list (Option.value ~default:Json.Null (Json.member k j)) in
      let str k o = Option.bind (Json.member k o) Json.str in
      let num k o = Option.bind (Json.member k o) Json.num in
      let names k = List.filter_map (str "name") (list k) in
      (names "workloads" = W.names || fail "workloads differ")
      && (List.map
            (fun o -> (str "name" o, str "unit" o, num "bound" o, str "better" o))
            (list "end_to_end")
          = List.map
              (fun (e : Metrics.e2e) ->
                (Some e.name, Some e.unit_, Some e.bound, Some "lower"))
              Metrics.end_to_end
         || fail "end_to_end differs from the catalogue")
      && (List.map (fun o -> (str "name" o, str "unit" o)) (list "per_layer")
          = List.map (fun (n, u) -> (Some n, Some u)) Metrics.per_layer
         || fail "per_layer differs from the catalogue")

let run ~benchmark_json =
  Os.set_subreaper ();
  let t0 = Os.now_s () in
  let ok =
    List.for_all
      (fun w -> check_run w ~traced:false && check_run w ~traced:true)
      W.names
    && (benchmark_json = "" || check_benchmark_json benchmark_json)
  in
  Printf.printf "smoke %s in %.1f s\n" (if ok then "passed" else "FAILED")
    (Os.now_s () -. t0);
  if ok then 0 else 1
