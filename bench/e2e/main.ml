(* The end-to-end verification benchmark.

     main.exe run --workload W --seed S [--seconds N] [--trace 0|1]
                  [--runs K] [--dump-queries]
     main.exe all --seed S [--seconds N] [--traced] [--runs K] [--dump-queries]
     main.exe smoke [--benchmark-json FILE]

   `run` measures one workload in this process and prints, as its last
   stdout line, {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics, or with --trace 1 the per-layer ones.  `all`
   runs every workload, each in a fresh child process.  --seconds N
   (default 30) sets how many passes over its inputs a timed run makes.
   --runs K repeats with seeds S..S+K-1 and prints each metric's median
   and spread.  See README.md. *)

(* Run one workload here and print its result line last. *)
let run_one ~seed ~seconds ~traced w =
  Os.set_subreaper ();
  (* The CLI children and the library calls run one at a time: keep them
     and the host-speed samples on one processor.  The serve session
     uses both. *)
  if w <> "serve-session" then Os.pin_here ();
  let header = Harness.header ~seed w in
  let r, notes, remarks =
    Harness.workload_run ~seconds ~traced w
      ~queries:(fun () -> Workloads.queries ~seed w)
      ~session:(fun () -> Workloads.serve_session ~seed)
  in
  prerr_endline header;
  List.iter (fun n -> prerr_endline ("  note: " ^ n)) notes;
  List.iter (fun n -> prerr_endline ("  " ^ n)) remarks;
  Metrics.pp_table stderr
    ~title:(Printf.sprintf "%s (%s)" w (if traced then "per layer" else "end to end"))
    r.Metrics.metrics;
  if not r.Metrics.correct then prerr_endline "  FAILED: see notes above";
  print_endline header;
  print_endline (Metrics.to_json r);
  0

(* ------------------------------------------------------------------ *)
(* Fresh child processes, for `all` and --runs.                        *)

let child_result ~seed ~seconds ~traced w =
  let c =
    Os.run ~timeout_s:600.
      [| Sys.executable_name; "run"; "--workload"; w; "--seed"; string_of_int seed;
         "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0") |]
  in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' c.Os.out) in
  match (List.rev lines, c.Os.exit) with
  | json :: rest, 0 -> (
      let digest =
        List.find_opt (fun l -> String.length l > 0 && l.[0] = '#') rest
        |> Option.value ~default:""
      in
      match Metrics.of_json json with
      | Ok r -> Ok (digest, r)
      | Error e -> Error e)
  | _, code -> Error (Printf.sprintf "child exited %d" code)

let bound name =
  List.find_map
    (fun (e : Metrics.e2e) -> if e.name = name then Some e.bound else None)
    Metrics.end_to_end

(* Median and spread of each metric over [results]; flags end-to-end
   metrics whose spread exceeds their bound. *)
let pp_spread results =
  match results with
  | [] -> ()
  | (r0 : Metrics.result) :: _ ->
      Printf.printf "  %-28s %14s %8s %8s\n" "metric" "median" "IQR/med" "bound";
      List.iter
        (fun (name, unit_, _) ->
          let vs =
            List.filter_map
              (fun (r : Metrics.result) ->
                List.find_map
                  (fun (n, _, v) -> if n = name then Some v else None)
                  r.metrics)
              results
          in
          let sp = Stat.spread vs in
          let b = bound name in
          let flag =
            match b with
            | Some b when name <> "setup_s" && sp > b -> "  WIDER THAN BOUND"
            | Some b when name <> "setup_s" && sp > b /. 3. -> "  (over a third)"
            | _ -> ""
          in
          Printf.printf "  %-28s %14.6g %7.2f%% %8s %s%s\n" name (Stat.median vs)
            (100. *. sp)
            (match b with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "")
            unit_ flag)
        r0.metrics

let run_many ~seed ~seconds ~runs ~traced ws =
  let ok = ref true in
  List.iter
    (fun w ->
      let results =
        List.init runs (fun i ->
            match child_result ~seed:(seed + i) ~seconds ~traced w with
            | Ok (digest, r) ->
                if runs = 1 then print_endline digest;
                if not r.Metrics.correct then ok := false;
                Some r
            | Error e ->
                ok := false;
                Printf.printf "%s seed %d: %s\n" w (seed + i) e;
                None)
        |> List.filter_map Fun.id
      in
      let failed = List.fold_left (fun a (r : Metrics.result) -> a + r.failed) 0 results in
      let attempted =
        List.fold_left (fun a (r : Metrics.result) -> a + r.attempted) 0 results
      in
      Printf.printf "%s: %d run(s), %d/%d queries failed, failed_frac %.4g%s\n" w
        (List.length results) failed attempted
        (float_of_int failed /. float_of_int (max 1 attempted))
        (if List.for_all (fun (r : Metrics.result) -> r.correct) results then ""
         else "  INCORRECT");
      if runs = 1 then
        List.iter
          (fun (r : Metrics.result) -> Metrics.pp_table stdout ~title:"" r.metrics)
          results
      else pp_spread results;
      flush stdout)
    ws;
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

let usage =
  "usage: main.exe (run --workload W | all | smoke) [--seed S] [--seconds N] \
   [--trace 0|1] [--traced] [--runs K] [--dump-queries] [--benchmark-json F]"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> ("", []) in
  let workload = ref "" and seed = ref 1 and traced = ref false in
  let seconds = ref 30. in
  let runs = ref 1 and dump = ref false and bench_json = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "S");
      ("--seconds", Arg.Int (fun n -> seconds := float_of_int n), "N run length");
      ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1");
      ("--traced", Arg.Set traced, " per-layer metrics");
      ("--runs", Arg.Set_int runs, "K");
      ("--dump-queries", Arg.Set dump, " print the generated inputs");
      ("--benchmark-json", Arg.Set_string bench_json, "FILE");
    ]
  in
  (match
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list ("main.exe" :: rest))
       specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | () -> ()
  | exception Arg.Bad msg | exception Arg.Help msg ->
      prerr_endline msg;
      exit 2);
  let workloads =
    match cmd with
    | "run" when List.mem !workload Workloads.names -> [ !workload ]
    | "all" -> Workloads.names
    | "smoke" -> []
    | _ ->
        prerr_endline usage;
        exit 2
  in
  if not (Sys.file_exists Os.slx_bin) then begin
    prerr_endline ("slx CLI not built at " ^ Os.slx_bin);
    exit 2
  end;
  let code =
    if !dump then begin
      List.iter
        (fun w ->
          print_endline (Harness.header ~seed:!seed w);
          List.iter print_endline (Workloads.dump ~seed:!seed w))
        workloads;
      0
    end
    else
      match (cmd, workloads) with
      | "smoke", _ -> Smoke.run ~benchmark_json:!bench_json
      | "run", [ w ] when !runs = 1 ->
          run_one ~seed:!seed ~seconds:!seconds ~traced:!traced w
      | _ -> run_many ~seed:!seed ~seconds:!seconds ~runs:!runs ~traced:!traced workloads
  in
  exit code
