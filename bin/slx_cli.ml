(* The slx command-line interface.

   slx figure1 --object consensus|tm|s-prime [--procs N] [--steps N] [--json]
       Regenerate a panel of Figure 1 (or the Section 5.3 grid).

   slx live-explore --impl register|cas|selfish --property obstruction|l,k
       [--depth N] [--crashes N] [--json]
       Search the bounded configuration graph for a fair,
       progress-free cycle (a pumpable lasso certificate).

   slx game --impl register|cas --adversary lockstep|tie [--steps N]
       Play a consensus exclusion game and report the verdict.

   slx tm-game --impl i12|agp --adversary local-progress|three-way
       Play a TM exclusion game.

   slx theorems
       Machine-check the Theorem 4.4 micro-universes and the Theorem
       4.9 constructions.

   slx stats --trace FILE
       Replay a trace recorded with --trace into summary histograms.

   slx serve --port N --workers N --store FILE
       Run the JSON-over-HTTP verification service: warm answers from
       the store, one worker task per other query.

   slx query [--kind explore|live] [--impl I] [--wait] [--port N] ...
       Submit a query to a running server (or --status ID / --stats /
       --shutdown).

   The exploration subcommands additionally take --trace FILE (record
   a Chrome trace-event JSON file, loadable in Perfetto),
   --progress[=SECS] (live heartbeats to stderr), and --store FILE
   (answer through the persistent verdict store: warm hits, else a cold
   run that is recorded — see doc/model.md section 10).  *)

open Cmdliner
open Slx_liveness
open Slx_core
module Obs = Slx_obs.Obs
module Progress = Slx_obs.Progress
module Json = Slx_obs.Json
module Telemetry = Slx_obs.Telemetry
module Trace_export = Slx_obs.Trace_export
module Vstore = Slx_store.Store
module Persist = Slx_store.Persist
module Queries = Slx_serve.Queries

(* Integers confined to [lo, hi]: an out-of-range value is a usage error
   (exit 124) at parse time, never an engine exception or a vacuous
   verdict. *)
let int_in ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
    | Some v when v >= lo && v <= hi -> Ok v
    | Some v ->
        Error
          (`Msg
            (if hi = max_int then Printf.sprintf "%d is out of range: must be >= %d" v lo
             else Printf.sprintf "%d is out of range: must be in [%d, %d]" v lo hi))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

(* ------------------------------------------------------------------ *)
(* Shared observability flags.                                         *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the exploration as a Chrome trace-event JSON file \
           (open it in Perfetto or chrome://tracing; replay it with \
           $(b,slx stats)).")

let progress_arg =
  Arg.(
    value
    & opt ~vopt:(Some 1.0) (some float) None
    & info [ "progress" ] ~docv:"SECS"
        ~doc:
          "Print a live progress heartbeat to stderr every $(docv) \
           seconds (default 1).")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "Answer through the persistent verdict store at $(docv): serve \
           an exact stored verdict warm (witnesses re-validated), or run \
           cold and record this run's verdict for the next one.  Created \
           if missing; corrupt or stale stores degrade to cold runs, \
           never to wrong answers.")

(* One structured error path for CLI file problems: a [slx]-prefixed
   line on stderr and exit 2, whatever the flag that named the file. *)
let cli_error fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "[slx] error: %s\n" s;
      2)
    fmt

(* The store commits through a temp file beside it, so a [--store] in a
   directory that does not exist could never be written: the commands
   refuse it through [cli_error] before any engine work or socket. *)
let store_dir_error path =
  let dir = Filename.dirname path in
  if Sys.file_exists dir && Sys.is_directory dir then None
  else Some (Printf.sprintf "%s: directory %s does not exist" path dir)

(* Graceful ^C for the exploration subcommands: the engines poll the
   flag once per node and abandon with partial statistics; a
   store-backed run commits its counters first. *)
let install_sigint () =
  let hit = ref false in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> hit := true))
   with Invalid_argument _ | Sys_error _ -> ());
  fun () -> !hit

let report_interrupt ~store ~stats =
  Printf.eprintf "[slx] interrupted: partial statistics below%s\n%!"
    (match store with
    | Some path -> Printf.sprintf " (store committed to %s)" path
    | None -> "");
  Format.eprintf "%a@." Explore_stats.pp stats;
  130

let make_obs ~trace ~progress =
  let reporter =
    match progress with
    | None -> Progress.off
    | Some interval -> Progress.create ~interval ()
  in
  Obs.create ~tracing:(trace <> None) ~progress:reporter ()

let write_trace obs = function
  | None -> ()
  | Some path ->
      Obs.write_trace obs path;
      let dropped = Obs.events_dropped obs in
      Printf.eprintf "[slx] trace written to %s (%d events%s)\n%!" path
        (List.length (Obs.events obs))
        (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else "")

(* ------------------------------------------------------------------ *)
(* figure1                                                             *)

let figure1_cmd =
  let object_arg =
    let doc =
      "Which grid: consensus, consensus-exhaustive (fair-cycle search), \
       tm, s-prime, or mutex."
    in
    let grids =
      [
        ("consensus", `Consensus);
        ("consensus-exhaustive", `Exhaustive);
        ("tm", `Tm);
        ("s-prime", `S_prime);
        ("mutex", `Mutex);
      ]
    in
    Arg.(value & opt (enum grids) `Consensus & info [ "object"; "o" ] ~doc)
  in
  let procs_arg =
    let doc = "System size n, in [2, 16]." in
    Arg.(value & opt (int_in 2 ~hi:16) 3 & info [ "procs"; "n" ] ~doc)
  in
  let steps_arg =
    let doc = "Step budget per run, at least 1." in
    Arg.(value & opt (int_in 1) 900 & info [ "steps" ] ~doc)
  in
  let depth_arg =
    let doc = "Schedule-tree depth (consensus-exhaustive only), in [1, 64]." in
    Arg.(value & opt (int_in 1 ~hi:64) 10 & info [ "depth" ] ~doc)
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the grid as one JSON object.")
  in
  let run obj n max_steps depth json =
    let grid =
      match obj with
      | `Consensus -> Figure1.consensus ~n ~max_steps ()
      | `Exhaustive -> Queries.consensus_exhaustive ~n ~depth ()
      | `Tm -> Figure1.tm ~n ~max_steps ()
      | `S_prime -> Figure1.s_prime ~n ~max_steps ()
      | `Mutex -> Figure1.mutex ~n ~max_steps ()
    in
    if json then print_endline (Figure1.to_json grid)
    else begin
      print_string (Figure1.render grid);
      let pp points =
        String.concat ", " (List.map (Format.asprintf "%a" Freedom.pp) points)
      in
      Printf.printf "strongest not excluding: %s\n"
        (pp (Figure1.strongest_not_excluded grid));
      Printf.printf "weakest excluding:       %s\n"
        (pp (Figure1.weakest_excluded grid))
    end;
    0
  in
  Cmd.v
    (Cmd.info "figure1" ~doc:"Regenerate a Figure 1 panel experimentally")
    Term.(const run $ object_arg $ procs_arg $ steps_arg $ depth_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* game (consensus)                                                    *)

let game_cmd =
  let impl_arg =
    let doc = "Implementation: register or cas." in
    Arg.(
      value
      & opt (enum [ ("register", `Register); ("cas", `Cas) ]) `Register
      & info [ "impl"; "i" ] ~doc)
  in
  let adversary_arg =
    let doc = "Adversary: lockstep or tie." in
    Arg.(
      value
      & opt (enum [ ("lockstep", `Lockstep); ("tie", `Tie) ]) `Lockstep
      & info [ "adversary"; "a" ] ~doc)
  in
  let steps_arg =
    Arg.(
      value
      & opt (some (int_in 1)) None
      & info [ "steps" ]
          ~doc:"Step budget (default 1000 for lockstep, 60 for tie).")
  in
  let run impl adversary steps =
    let open Slx_consensus in
    let factory =
      match impl with
      | `Register -> Register_consensus.factory ()
      | `Cas -> Cas_consensus.factory ()
    in
    match adversary with
    | `Lockstep ->
        let v =
          Exclusion.play ~n:2 ~factory
            ~adversary:(Consensus_adversary.lockstep ())
            ~safety:Consensus_safety.property
            ~liveness:
              (Live_property.of_freedom ~good:Consensus_type.good
                 (Freedom.make ~l:1 ~k:2))
            ~max_steps:(Option.value steps ~default:1000)
        in
        Printf.printf "fair=%b safe=%b liveness((1,2))=%b\n" v.Exclusion.fair
          v.Exclusion.safety_holds v.Exclusion.liveness_holds;
        Printf.printf "%s\n"
          (if Exclusion.adversary_wins v then
             "adversary wins: (1,2)-freedom excluded"
           else "implementation survives");
        0
    | `Tie -> (
        let steps = Option.value steps ~default:60 in
        match Consensus_adversary.tie_attack ~factory ~steps () with
        | Consensus_adversary.Defeated r ->
            Printf.printf
              "adversary wins: %d fair steps, no decision, safety %b\n"
              r.Slx_sim.Run_report.total_time
              (Consensus_safety.check r.Slx_sim.Run_report.history);
            0
        | Consensus_adversary.Lost _ ->
            Printf.printf "adversary loses: a decision was forced\n";
            0)
  in
  Cmd.v
    (Cmd.info "game" ~doc:"Play a consensus exclusion game")
    Term.(const run $ impl_arg $ adversary_arg $ steps_arg)

(* ------------------------------------------------------------------ *)
(* tm-game                                                             *)

let tm_game_cmd =
  let impl_arg =
    let doc = "Implementation: i12 or agp." in
    Arg.(
      value
      & opt (enum [ ("i12", `I12); ("agp", `Agp) ]) `I12
      & info [ "impl"; "i" ] ~doc)
  in
  let adversary_arg =
    let doc = "Adversary: local-progress or three-way." in
    Arg.(
      value
      & opt
          (enum
             [ ("local-progress", `Local_progress); ("three-way", `Three_way) ])
          `Local_progress
      & info [ "adversary"; "a" ] ~doc)
  in
  let steps_arg =
    Arg.(value & opt (int_in 1) 800 & info [ "steps" ] ~doc:"Step budget.")
  in
  let run impl adversary steps =
    let open Slx_tm in
    let factory =
      match impl with
      | `I12 -> I12.factory ~vars:2
      | `Agp -> Agp_tm.factory ~vars:2
    in
    let r =
      match adversary with
      | `Local_progress ->
          Tm_adversary.run_local_progress ~factory ~max_steps:steps ()
      | `Three_way -> Tm_adversary.run_three_way ~factory ~max_steps:steps
    in
    List.iter
      (fun (p, c) -> Printf.printf "p%d: %d commits\n" p c)
      (Tm_adversary.commits r.Slx_sim.Run_report.history);
    Printf.printf "final-state opacity: %b   S': %b\n"
      (Opacity.check_final r.Slx_sim.Run_report.history)
      (S_prime.check_final r.Slx_sim.Run_report.history);
    List.iter
      (fun (l, k) ->
        let f = Freedom.make ~l ~k in
        Printf.printf "%s: %b\n"
          (Format.asprintf "%a" Freedom.pp f)
          (Freedom.holds ~good:Tm_type.good r f))
      [ (1, 2); (2, 2); (1, 3) ];
    0
  in
  Cmd.v
    (Cmd.info "tm-game" ~doc:"Play a TM exclusion game")
    Term.(const run $ impl_arg $ adversary_arg $ steps_arg)

(* ------------------------------------------------------------------ *)
(* theorems                                                            *)

let theorems_cmd =
  let run () =
    let pos = Theorem_4_4.positive () and neg = Theorem_4_4.negative () in
    Printf.printf "Theorem 4.4 (positive): |Gmax|=%d, weakest exists: %b\n"
      (List.length (Theorem_4_4.gmax pos))
      (Theorem_4_4.weakest_excluding_exists pos);
    Printf.printf "Theorem 4.4 (negative): |Gmax|=%d, weakest exists: %b\n"
      (List.length (Theorem_4_4.gmax neg))
      (Theorem_4_4.weakest_excluding_exists neg);
    let r = Theorem_4_9.run ~depth:5 in
    Printf.printf "Theorem 4.9: It/Ib ensure S: %b, incomparable: %b -> %s\n"
      r.Theorem_4_9.both_ensure_s r.Theorem_4_9.incomparable
      (if Theorem_4_9.holds r then "no strongest liveness below Lmax"
       else "CHECK FAILED");
    let theorem_4_4 =
      Theorem_4_4.weakest_excluding_exists pos
      && (not (Theorem_4_4.weakest_excluding_exists neg))
      && Theorem_4_4.verify_by_enumeration pos
      && Theorem_4_4.verify_by_enumeration neg
    in
    if theorem_4_4 && Theorem_4_9.holds r then 0 else 1
  in
  Cmd.v
    (Cmd.info "theorems" ~doc:"Machine-check the Theorem 4.4/4.9 constructions")
    Term.(const run $ const ())


(* ------------------------------------------------------------------ *)
(* mutex                                                               *)

let mutex_cmd =
  let impl_arg =
    let doc = "Lock: tas, bakery, or peterson." in
    Arg.(
      value
      & opt
          (enum
             [ ("tas", `Tas); ("bakery", `Bakery); ("peterson", `Peterson) ])
          `Tas
      & info [ "impl"; "i" ] ~doc)
  in
  let steps_arg =
    Arg.(value & opt (int_in 1) 800 & info [ "steps" ] ~doc:"Step budget.")
  in
  let run impl steps =
    let open Slx_objects in
    let factory =
      match impl with
      | `Tas -> Mutex.tas_factory ()
      | `Bakery -> Bakery.factory ()
      | `Peterson -> Peterson.factory ()
    in
    let r = Mutex.run_starvation ~factory ~max_steps:steps in
    List.iter
      (fun (p, c) -> Printf.printf "p%d acquired %d times\n" p c)
      (Mutex.acquisitions r.Slx_sim.Run_report.history);
    Printf.printf "mutual exclusion: %b   fair: %b\n"
      (Mutex.mutual_exclusion r.Slx_sim.Run_report.history)
      (Slx_liveness.Fairness.is_bounded_fair r);
    Printf.printf "starvation-freedom: %b\n"
      (Freedom.holds ~good:Mutex.good r (Freedom.wait_freedom ~n:2));
    0
  in
  Cmd.v
    (Cmd.info "mutex" ~doc:"Run a lock against the starvation scheduler")
    Term.(const run $ impl_arg $ steps_arg)

(* ------------------------------------------------------------------ *)
(* explore / live-explore: one query record each                       *)

let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

(* Print a query's answer: one JSON object, or the human report. *)
let print_answer ~json (sp : Queries.spec) source answer =
  let source = Option.map (Format.asprintf "%a" Persist.pp_source) source in
  let source_json =
    match source with
    | None -> ""
    | Some s -> ", \"store_source\": " ^ Json.quote s
  in
  let print_stats stats =
    Option.iter (Printf.printf "store: %s\n") source;
    Format.printf "%a@." Explore_stats.pp stats
  in
  match answer with
  | Queries.Safety e when json ->
      let outcome, runs =
        match e.Explore.outcome with
        | Explore.Ok runs -> ("ok", runs)
        | Explore.Counterexample _ -> ("counterexample", 0)
      in
      Printf.printf
        "{\"impl\": %s, \"depth\": %d, \"max_crashes\": %d, \"outcome\": %s, \
         \"runs\": %d%s, \"stats\": %s}\n"
        (Json.quote sp.sp_impl) sp.sp_depth sp.sp_crashes (Json.quote outcome)
        runs source_json
        (Explore_stats.to_json e.Explore.stats)
  | Queries.Safety e ->
      (match e.Explore.outcome with
      | Explore.Ok runs -> Printf.printf "safe on all %d bounded schedules\n" runs
      | Explore.Counterexample r ->
          Format.printf "counterexample: %a@."
            Slx_consensus.Consensus_type.pp_history r.Slx_sim.Run_report.history;
          Option.iter
            (fun script ->
              Format.printf "witness script: %s@."
                (String.concat " " (List.map Queries.dec_string script)))
            e.Explore.witness_script);
      print_stats e.Explore.stats
  | Queries.Live r ->
      let property = Format.asprintf "%a" Freedom.pp (Queries.point sp) in
      let script sep quote ds =
        String.concat sep (List.map (fun d -> quote (Queries.dec_string d)) ds)
      in
      if json then begin
        let outcome, cert_json =
          match r.Live_explore.outcome with
          | Live_explore.No_fair_cycle -> ("no_fair_cycle", "")
          | Live_explore.Lasso c ->
              let script = script ", " Json.quote in
              ( "lasso",
                Printf.sprintf
                  ", \"stem\": [%s], \"cycle\": [%s], \"period\": %d"
                  (script c.Lasso.c_stem) (script c.Lasso.c_cycle)
                  (List.length c.Lasso.c_cycle) )
        in
        Printf.printf
          "{\"impl\": %s, \"property\": %s, \"n\": %d, \"depth\": %d, \
           \"max_crashes\": %d, \"outcome\": %s%s, \"exhaustive\": %b%s, \
           \"stats\": %s}\n"
          (Json.quote sp.sp_impl) (Json.quote property) sp.sp_n sp.sp_depth
          sp.sp_crashes (Json.quote outcome) cert_json (not sp.sp_dpor)
          source_json
          (Explore_stats.to_json r.Live_explore.stats)
      end
      else begin
        (match r.Live_explore.outcome with
        | Live_explore.Lasso c ->
            Printf.printf "fair non-progressing lasso found: %s is excluded\n"
              property;
            Printf.printf "  stem:  %s\n" (script " " Fun.id c.Lasso.c_stem);
            Printf.printf "  cycle: %s  (period %d, pump-validated)\n"
              (script " " Fun.id c.Lasso.c_cycle)
              (List.length c.Lasso.c_cycle)
        | Live_explore.No_fair_cycle when sp.sp_dpor ->
            Printf.printf
              "no fair non-progressing cycle within depth %d on the \
               DPOR-reduced tree: %s is not excluded there (the reduced \
               tree can miss a lasso under the depth bound; --no-dpor \
               searches exhaustively)\n"
              sp.sp_depth property
        | Live_explore.No_fair_cycle ->
            Printf.printf
              "no fair non-progressing cycle within depth %d (exhaustive): \
               %s is not excluded on this bounded graph\n"
              sp.sp_depth property);
        print_stats r.Live_explore.stats
      end

(* Run one query record and print its answer.  A spec {!Queries.make}
   refuses is a usage error (exit 124), like cmdliner's own.  [naive]
   runs the replay-from-scratch reference engine instead, which
   bypasses the store. *)
let run_query ?(naive = false) ~json ~store ~trace ~progress spec =
  match (spec, Option.bind store store_dir_error) with
  | Error e, _ -> `Error (false, e)
  | Ok _, Some e -> `Ok (cli_error "%s" e)
  | Ok (sp : Queries.spec), None ->
      let obs = make_obs ~trace ~progress in
      if naive && trace <> None then
        prerr_endline
          "[slx] note: the naive engine does not trace; the trace will be \
           empty";
      if naive && store <> None then
        prerr_endline "[slx] note: the naive engine bypasses the store";
      let cancel = install_sigint () in
      let run () =
        if naive then
          ( Queries.Safety
              (Explore.explore_naive ~n:sp.sp_n
                 ~factory:(Queries.factory sp)
                 ~invoke:Queries.safety_invoke ~depth:sp.sp_depth
                 ~max_crashes:sp.sp_crashes ~check:Queries.check ()),
            None )
        else
          Queries.run
            ?store:(Option.map Vstore.open_ store)
            ~obs ~cancel sp
      in
      match run () with
      | exception Explore.Interrupted stats ->
          write_trace obs trace;
          `Ok (report_interrupt ~store ~stats)
      | answer, source ->
          write_trace obs trace;
          print_answer ~json sp source answer;
          `Ok 0

let depth_arg =
  Arg.(value & opt int 10 & info [ "depth" ] ~doc:"Schedule-tree depth (1-64).")

let explore_cmd =
  let impl_arg =
    let doc = "Implementation: cas, register, or selfish (consensus)." in
    Arg.(value & opt string "cas" & info [ "impl"; "i" ] ~doc)
  in
  let crashes_arg =
    Arg.(value & opt int 0 & info [ "crashes" ] ~doc:"Max crash branches.")
  in
  let naive_arg =
    Arg.(value & flag
         & info [ "naive" ]
             ~doc:"Use the replay-from-scratch reference engine.")
  in
  let run impl depth crashes json naive store trace progress =
    run_query ~naive ~json ~store ~trace ~progress
      (Queries.make ~kind:`Explore ~impl ~property:"" ~n:2 ~depth ~crashes
         ~max_period:None ~pump:None ~dpor:true)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Exhaustively check consensus safety on every bounded schedule")
    Term.(
      ret
        (const run $ impl_arg $ depth_arg $ crashes_arg
        $ json_arg ~doc:"Emit the verdict and full statistics as one JSON object."
        $ naive_arg $ store_arg $ trace_arg $ progress_arg))

let live_explore_cmd =
  let impl_arg =
    let doc = "Implementation: register, cas, or selfish (consensus)." in
    Arg.(value & opt string "register" & info [ "impl"; "i" ] ~doc)
  in
  let property_arg =
    let doc =
      "Liveness property: obstruction, lock, wait, or an explicit \
       (l,k)-freedom point written l,k (e.g. 1,2), with l <= k and k at \
       most the process count."
    in
    Arg.(value & opt string "obstruction" & info [ "property"; "p" ] ~doc)
  in
  let procs_arg =
    Arg.(value & opt int 2 & info [ "procs"; "n" ] ~doc:"System size n (1-16).")
  in
  let crashes_arg =
    let doc =
      "Max crash branches (pass at least n-1 to give obstruction-style \
       points their solo windows)."
    in
    Arg.(value & opt int 0 & info [ "crashes" ] ~doc)
  in
  let max_period_arg =
    Arg.(value & opt (some int) None
         & info [ "max-period" ]
             ~doc:"Bound candidate cycle length in ticks (default \
                   ceil(depth/2), the largest period observable twice \
                   within the depth bound).  The transposition cache \
                   engages only when depth > 2*max-period + 1, so never \
                   at the default.")
  in
  let pump_arg =
    Arg.(value & opt (some int) None
         & info [ "pump" ]
             ~doc:"Certificate validation budget in ticks (default 4*depth).")
  in
  let no_dpor_arg =
    Arg.(value & flag
         & info [ "no-dpor" ]
             ~doc:"Disable the one-level sleep-set dynamic partial-order \
                   reduction: the exhaustive reference (invocations are \
                   still offered in process order).  Under a depth bound \
                   the reduced search can miss a lasso this one finds.")
  in
  let run impl property n depth crashes max_period pump no_dpor json store
      trace progress =
    run_query ~json ~store ~trace ~progress
      (Queries.make ~kind:`Live ~impl ~property ~n ~depth ~crashes ~max_period
         ~pump ~dpor:(not no_dpor))
  in
  Cmd.v
    (Cmd.info "live-explore"
       ~doc:
         "Search the bounded configuration graph for a fair, progress-free \
          cycle")
    Term.(
      ret
        (const run $ impl_arg $ property_arg $ procs_arg $ depth_arg
        $ crashes_arg $ max_period_arg $ pump_arg $ no_dpor_arg
        $ json_arg
            ~doc:"Emit the verdict, certificate and statistics as one JSON \
                  object."
        $ store_arg $ trace_arg $ progress_arg))

(* ------------------------------------------------------------------ *)
(* stats — replay a saved trace into histograms                        *)

let stats_cmd =
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"The Chrome trace-event JSON file to replay.")
  in
  let store_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:"Summarize the persistent verdict store at $(docv): \
                records, warm/cold counters, health.")
  in
  let store_stats path =
    if not (Sys.file_exists path) then cli_error "%s: no such store" path
    else begin
      let st = Vstore.open_ path in
      let h = Vstore.health st and c = Vstore.counters st in
      let records = Vstore.records st in
      Printf.printf "store: %s\n" path;
      Printf.printf "  engine:   %s\n" Vstore.engine_version;
      (match h.Vstore.h_invalidated with
      | Some reason -> Printf.printf "  INVALIDATED: %s\n" reason
      | None -> ());
      if h.Vstore.h_records_dropped > 0 then
        Printf.printf "  dropped:  %d corrupt frame(s)\n"
          h.Vstore.h_records_dropped;
      Printf.printf
        "  counters: %d queries, %d warm, %d cold, %d rejected, %d refused\n"
        c.Vstore.c_queries c.Vstore.c_warm_hits c.Vstore.c_colds
        c.Vstore.c_rejected c.Vstore.c_refused;
      Printf.printf "  records:  %d\n" (List.length records);
      List.iter
        (fun (r : Vstore.record) ->
          let verdict, budgets =
            match r.Vstore.r_verdict with
            | Vstore.V_ok n -> (Printf.sprintf "ok(%d runs)" n, "")
            | Vstore.V_counterexample w ->
                (Printf.sprintf "counterexample(%d decisions)"
                   (List.length w), "")
            | Vstore.V_no_fair_cycle ->
                ( "no-fair-cycle",
                  Printf.sprintf " mp=%d pt=%d" r.Vstore.r_max_period
                    r.Vstore.r_pump_ticks )
            | Vstore.V_lasso { stem; cycle } ->
                ( Printf.sprintf "lasso(stem %d, cycle %d)"
                    (List.length stem) (List.length cycle),
                  Printf.sprintf " mp=%d pt=%d" r.Vstore.r_max_period
                    r.Vstore.r_pump_ticks )
          in
          Printf.printf "    qid=%016x depth=%-2d%s %-28s steps=%d\n"
            r.Vstore.r_qid r.Vstore.r_depth budgets verdict r.Vstore.r_steps)
        records;
      0
    end
  in
  let trace_stats path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> cli_error "%s" e
    | text -> (
        match Trace_export.read text with
        | Error e -> cli_error "%s: invalid trace: %s" path e
        | Ok { Trace_export.events; events_dropped } ->
            let of_kind k =
              List.filter (fun e -> e.Telemetry.ev_kind = k) events
            in
            (* Completed spans are counted at their end; spans and
               instants are listed by name. *)
            let counts ph =
              List.filter_map
                (fun (d : Trace_export.descriptor) ->
                  match List.length (of_kind d.kind) with
                  | c when d.ph = ph && c > 0 -> Some (d.name, c)
                  | _ -> None)
                Trace_export.descriptors
              |> List.sort compare
            in
            Printf.printf "trace: %s\n" path;
            Printf.printf "  events:        %d, %d dropped\n"
              (List.length events) events_dropped;
            List.iter
              (fun (n, c) -> Printf.printf "  spans  %-15s %d\n" n c)
              (counts "E");
            List.iter
              (fun (n, c) -> Printf.printf "  events %-15s %d\n" n c)
              (counts "i");
            (* Cache-hit depth distribution: at which depths does the
               transposition cache actually cut subtrees? *)
            let hist = Hashtbl.create 16 in
            List.iter
              (fun e ->
                let d = e.Telemetry.ev_a in
                Hashtbl.replace hist d
                  (1 + Option.value ~default:0 (Hashtbl.find_opt hist d)))
              (of_kind Telemetry.Cache_hit);
            if Hashtbl.length hist > 0 then begin
              let rows =
                List.sort compare
                  (Hashtbl.fold (fun d c acc -> (d, c) :: acc) hist [])
              in
              let peak = List.fold_left (fun m (_, c) -> max m c) 1 rows in
              Printf.printf "\n  cache-hit depth distribution:\n";
              List.iter
                (fun (d, c) ->
                  Printf.printf "    depth %2d |%-40s %d\n" d
                    (String.make (max 1 (40 * c / peak)) '#')
                    c)
                rows
            end;
            (* Reduction work: each reduction event carries the number
               of decisions affected in [b], so the event counts alone
               under-report — sum the weights. *)
            let reductions =
              List.filter_map
                (fun (d : Trace_export.descriptor) ->
                  let w =
                    List.fold_left
                      (fun acc e -> acc + e.Telemetry.ev_b)
                      0 (of_kind d.kind)
                  in
                  match d.b with
                  | Some arg when d.cat = "reduce" && w > 0 ->
                      Some (d.name, arg, w)
                  | _ -> None)
                Trace_export.descriptors
            in
            if reductions <> [] then begin
              Printf.printf "\n  reduction decisions (weighted by args):\n";
              List.iter
                (fun (name, arg, w) ->
                  Printf.printf "    %-15s %-7s %d\n" name arg w)
                reductions
            end;
            (* Pump-validation cost: pump span durations, tagged with
               the verdict carried on the close. *)
            let us e = float_of_int e.Telemetry.ev_ns /. 1e3 in
            let _, pump_costs, accepted =
              List.fold_left
                (fun ((starts, costs, acc) as st) e ->
                  match (e.Telemetry.ev_kind, starts) with
                  | Telemetry.Pump_start, _ -> (us e :: starts, costs, acc)
                  | Telemetry.Pump_verdict, t0 :: outer ->
                      ( outer,
                        (us e -. t0) :: costs,
                        if e.Telemetry.ev_b = 1 then acc + 1 else acc )
                  | _ -> st)
                ([], [], 0) events
            in
            if pump_costs <> [] then begin
              let n = List.length pump_costs in
              let total = List.fold_left ( +. ) 0. pump_costs in
              Printf.printf
                "\n  pump validation: %d sample(s), min %.1f us, mean %.1f \
                 us, max %.1f us\n"
                n
                (List.fold_left min infinity pump_costs)
                (total /. float_of_int n)
                (List.fold_left max neg_infinity pump_costs);
              Printf.printf "    certificates accepted: %d of %d\n" accepted n
            end;
            0)
  in
  let run store trace =
    let store_rc = Option.map store_stats store in
    match (trace, store_rc) with
    | None, Some rc -> rc
    | None, None -> cli_error "stats needs --trace FILE and/or --store FILE"
    | Some path, store_rc ->
        let trc = trace_stats path in
        if store_rc = Some 0 || store_rc = None then trc
        else Option.get store_rc
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Validate a saved exploration trace and replay it into summary \
          histograms, or summarize a persistent verdict store")
    Term.(const run $ store_file_arg $ trace_file_arg)

(* ------------------------------------------------------------------ *)
(* serve / query / worker                                              *)

let serve_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR"
             ~doc:"Bind address (an IP literal).")
  in
  let port_arg =
    Arg.(value & opt (int_in 1 ~hi:65535) 8844
         & info [ "port" ] ~docv:"PORT" ~doc:"TCP port, in [1, 65535].")
  in
  let workers_arg =
    Arg.(value & opt (int_in 1 ~hi:64) 2
         & info [ "workers"; "j" ] ~docv:"N"
             ~doc:"Worker processes (the slx binary re-executed), in [1, 64].")
  in
  let store_path_arg =
    Arg.(value & opt string "slx.store"
         & info [ "store" ] ~docv:"FILE"
             ~doc:"The persistent verdict store (coordinator is the only \
                   writer).")
  in
  let run host port workers store =
    match store_dir_error store with
    | Some e -> cli_error "%s" e
    | None -> Slx_serve.Serve.main ~host ~port ~workers ~store ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification service: a JSON-over-HTTP coordinator that \
          answers queries warm from the store, computes each other one \
          cold as a single task on a worker process (re-leased on \
          crash), and dedupes \
          identical in-flight queries.  Endpoints: \
          POST /query, GET /status/ID, GET /stats, POST /shutdown.")
    Term.(const run $ host_arg $ port_arg $ workers_arg $ store_path_arg)

let query_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Server address.")
  in
  let port_arg =
    Arg.(value & opt (int_in 1 ~hi:65535) 8844 & info [ "port" ] ~docv:"PORT"
         ~doc:"Server port, in [1, 65535].")
  in
  let kind_arg =
    Arg.(value
         & opt (enum [ ("explore", "explore"); ("live", "live") ]) "explore"
         & info [ "kind"; "k" ] ~doc:"Query kind: explore or live.")
  in
  let impl_arg =
    Arg.(value & opt string "cas"
         & info [ "impl"; "i" ] ~doc:"Implementation: cas, register, or \
                                      selfish.")
  in
  let property_arg =
    Arg.(value & opt string "obstruction"
         & info [ "property"; "p" ]
             ~doc:"Liveness property (live queries): obstruction, lock, \
                   wait, or l,k.")
  in
  let procs_arg =
    Arg.(value & opt int 2 & info [ "procs"; "n" ] ~doc:"System size n.")
  in
  let depth_arg =
    Arg.(value & opt int 8 & info [ "depth" ] ~doc:"Schedule-tree depth.")
  in
  let crashes_arg =
    Arg.(value & opt int 0 & info [ "crashes" ] ~doc:"Max crash branches.")
  in
  let max_period_arg =
    Arg.(value & opt (some int) None
         & info [ "max-period" ] ~doc:"Liveness cycle-length bound.")
  in
  let pump_arg =
    Arg.(value & opt (some int) None
         & info [ "pump" ] ~doc:"Liveness pump budget in ticks.")
  in
  let wait_arg =
    Arg.(value & flag
         & info [ "wait"; "w" ]
             ~doc:"Stream progress heartbeats and the result (ndjson) \
                   instead of returning a ticket.")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Server-side deadline for this query.")
  in
  let status_arg =
    Arg.(value & opt (some int) None
         & info [ "status" ] ~docv:"ID" ~doc:"Fetch a query's status \
                                              instead of submitting one.")
  in
  let stats_flag_arg =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Fetch the server's /stats instead of \
                                  submitting a query.")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Ask the server to drain and exit.")
  in
  let run host port kind impl property n depth crashes max_period pump wait
      timeout status stats shutdown =
    let finish = function
      | Ok () -> 0
      | Error e ->
          prerr_endline e;
          1
    in
    if shutdown then finish (Slx_serve.Client.shutdown ~host ~port ())
    else if stats then
      finish (Slx_serve.Client.get ~host ~port "/stats" ~out:stdout)
    else
      match status with
      | Some id ->
          finish
            (Slx_serve.Client.get ~host ~port
               (Printf.sprintf "/status/%d" id)
               ~out:stdout)
      | None ->
          let budget k = Option.map (fun v -> (k, Json.Int v)) in
          finish
            (Slx_serve.Client.post_query ~host ~port ~wait ?timeout
               ([
                  ("kind", Json.Str kind);
                  ("impl", Json.Str impl);
                  ("property", Json.Str property);
                  ("n", Json.Int n);
                  ("depth", Json.Int depth);
                  ("crashes", Json.Int crashes);
                ]
               @ List.filter_map Fun.id
                   [ budget "max_period" max_period; budget "pump" pump ])
               ~out:stdout)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Submit a verification query to a running $(b,slx serve) (or \
          fetch --status ID, --stats, or --shutdown).")
    Term.(
      const run $ host_arg $ port_arg $ kind_arg $ impl_arg $ property_arg
      $ procs_arg $ depth_arg $ crashes_arg $ max_period_arg $ pump_arg
      $ wait_arg $ timeout_arg $ status_arg $ stats_flag_arg $ shutdown_arg)

(* The serve coordinator re-executes this binary with argv
   [| slx; "worker" |]; the subcommand name is part of the protocol. *)
let worker_cmd =
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "(internal) Run the serve worker loop: JSON-lines tasks on \
          stdin, heartbeats and results on stdout.  Spawned by \
          $(b,slx serve); not meant to be run by hand.")
    Term.(const (fun () -> Slx_serve.Worker.main ()) $ const ())

let () =
  let info =
    Cmd.info "slx" ~version:"1.0.0"
      ~doc:"Safety-liveness exclusion in distributed computing (PODC 2015)"
  in
  exit (Cmd.eval' (Cmd.group info
       [ figure1_cmd; game_cmd; tm_game_cmd; theorems_cmd; mutex_cmd;
         explore_cmd; live_explore_cmd; stats_cmd;
         serve_cmd;
         query_cmd; worker_cmd ]))
