open Slx_sim
open Slx_core
open Slx_liveness
open Slx_consensus
module Json = Slx_obs.Json
module Obs = Slx_obs.Obs
module Progress = Slx_obs.Progress
module Store = Slx_store.Store
module Persist = Slx_store.Persist

type spec = {
  sp_kind : [ `Explore | `Live ];
  sp_impl : string;
  sp_property : string;
  sp_n : int;
  sp_depth : int;
  sp_crashes : int;
  sp_max_period : int;
  sp_pump : int;
}

(* ------------------------------------------------------------------ *)
(* Vocabulary: implementations and freedom points, as the CLI names
   them.  The reduction flags are pinned to the CLI defaults so every
   producer lands on the same store key. *)

type factory =
  unit -> (Consensus_type.invocation, Consensus_type.response) Runner.factory

let point_of_string ~n = function
  | "obstruction" -> Ok Freedom.obstruction_freedom
  | "lock" -> Ok (Freedom.lock_freedom ~n)
  | "wait" -> Ok (Freedom.wait_freedom ~n)
  | s -> begin
      match String.split_on_char ',' s with
      | [ l; k ] -> begin
          match
            (int_of_string_opt (String.trim l), int_of_string_opt (String.trim k))
          with
          | Some l, Some k when l >= 1 && k >= 1 -> Ok (Freedom.make ~l ~k)
          | _ -> Error (Printf.sprintf "unknown property %S" s)
        end
      | _ -> Error (Printf.sprintf "unknown property %S" s)
    end

let factory_of_impl : string -> (factory, string) result = function
  | "cas" -> Ok (fun () -> Cas_consensus.factory ())
  | "register" -> Ok (fun () -> Register_consensus.factory ())
  | "selfish" -> Ok (fun () -> Selfish_consensus.factory ())
  | other -> Error (Printf.sprintf "unknown implementation %S" other)

let factory_of_spec sp = factory_of_impl sp.sp_impl

let safety_invoke =
  Explore.workload_invoke
    (Driver.n_times 1 (fun p _ -> Consensus_type.Propose (p - 1)))

let live_invoke =
  Explore.workload_invoke
    (Driver.forever (fun p -> Consensus_type.Propose (p - 1)))

let good (_ : Consensus_type.response) = true
let check r = Consensus_safety.check r.Run_report.history

let dec_string = function
  | Driver.Schedule p -> Printf.sprintf "S%d" p
  | Driver.Invoke (p, Consensus_type.Propose v) -> Printf.sprintf "I%d(%d)" p v
  | Driver.Crash p -> Printf.sprintf "C%d" p
  | Driver.Stop -> "stop"

(* ------------------------------------------------------------------ *)
(* Wire forms.                                                         *)

let kind_string = function `Explore -> "explore" | `Live -> "live"

let spec_of_json j =
  let str k = Option.bind (Json.member k j) Json.str in
  let int k = Option.bind (Json.member k j) Json.int in
  let kind =
    match str "kind" with
    | Some "explore" | None -> Ok `Explore
    | Some "live" -> Ok `Live
    | Some other -> Error (Printf.sprintf "unknown kind %S" other)
  in
  match kind with
  | Error e -> Error e
  | Ok kind ->
      let impl = Option.value (str "impl") ~default:"cas" in
      let depth = Option.value (int "depth") ~default:8 in
      let n = Option.value (int "n") ~default:2 in
      let crashes = Option.value (int "crashes") ~default:0 in
      let property = Option.value (str "property") ~default:"obstruction" in
      (* The liveness budgets are read (and checked) for live queries
         only; an explore query ignores them. *)
      let max_period, pump =
        if kind = `Live then
          ( Option.value (int "max_period") ~default:(max 1 ((depth + 1) / 2)),
            Option.value (int "pump") ~default:(4 * depth) )
        else (0, 0)
      in
      if depth < 1 || depth > 64 then
        Error (Printf.sprintf "depth %d out of range" depth)
      else if n < 1 || n > 16 then Error (Printf.sprintf "n %d out of range" n)
      else if crashes < 0 then
        Error (Printf.sprintf "crashes %d out of range" crashes)
      else if kind = `Live && max_period < 1 then
        Error (Printf.sprintf "max_period %d out of range" max_period)
      else if kind = `Live && pump < 1 then
        Error (Printf.sprintf "pump %d out of range" pump)
      else begin
        let sp =
          {
            sp_kind = kind;
            sp_impl = impl;
            sp_property = (if kind = `Live then property else "");
            sp_n = n;
            sp_depth = depth;
            sp_crashes = crashes;
            sp_max_period = max_period;
            sp_pump = pump;
          }
        in
        match factory_of_spec sp with
        | Error e -> Error e
        | Ok _ ->
            if kind = `Live then
              match point_of_string ~n sp.sp_property with
              | Error e -> Error e
              | Ok _ -> Ok sp
            else Ok sp
      end

let spec_to_json sp =
  Printf.sprintf
    "{\"kind\": %S, \"impl\": %S, \"property\": %S, \"n\": %d, \"depth\": \
     %d, \"crashes\": %d, \"max_period\": %d, \"pump\": %d}"
    (kind_string sp.sp_kind) sp.sp_impl sp.sp_property sp.sp_n sp.sp_depth
    sp.sp_crashes sp.sp_max_period sp.sp_pump

let key sp =
  Printf.sprintf "%s|%s|%s|n=%d|d=%d|c=%d|mp=%d|pt=%d"
    (kind_string sp.sp_kind) sp.sp_impl sp.sp_property sp.sp_n sp.sp_depth
    sp.sp_crashes sp.sp_max_period sp.sp_pump

let check_id sp =
  match sp.sp_kind with
  | `Explore -> "consensus-safety"
  | `Live -> (
      match point_of_string ~n:sp.sp_n sp.sp_property with
      | Ok point -> "live:" ^ Format.asprintf "%a" Freedom.pp point
      | Error _ -> "live:?" ^ sp.sp_property)

let qid sp =
  match factory_of_spec sp with
  | Error e -> Error e
  | Ok factory ->
      let rd = Persist.instance_digest ~n:sp.sp_n ~factory in
      Ok
        (match sp.sp_kind with
        | `Explore ->
            Persist.query_key ~ident:sp.sp_impl ~check:(check_id sp)
              ~n:sp.sp_n ~registry_digest:rd ~max_crashes:sp.sp_crashes
              ~dpor:true ~symmetry:true ()
        | `Live ->
            Persist.query_key ~ident:sp.sp_impl ~check:(check_id sp)
              ~n:sp.sp_n ~registry_digest:rd ~max_crashes:sp.sp_crashes
              ~dpor:true ())

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

type mode = Full

let ints xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

let witness_json ds =
  Printf.sprintf "\"witness\": %s, \"witness_pp\": [%s]"
    (ints (Explore.codes_of_script ds))
    (String.concat ", " (List.map (fun d -> Printf.sprintf "%S" (dec_string d)) ds))

(* The work a computed answer did: [steps] executed, of which
   [steps_replayed] re-established a sibling's configuration by
   replaying its decision prefix. *)
let work_json (stats : Explore_stats.t) =
  Printf.sprintf "\"steps\": %d, \"steps_replayed\": %d"
    stats.Explore_stats.steps_executed stats.Explore_stats.steps_replayed

let safety_result (e : (_, _) Explore.exploration) =
  let stats = e.Explore.stats in
  match e.Explore.outcome with
  | Explore.Ok runs ->
      Printf.sprintf "{\"outcome\": \"ok\", \"runs\": %d, \"digest\": %d, %s}"
        runs stats.Explore_stats.history_digest (work_json stats)
  | Explore.Counterexample _ ->
      Printf.sprintf "{\"outcome\": \"counterexample\", %s, %s}"
        (witness_json (Option.get e.Explore.witness_script))
        (work_json stats)

let live_result (r : (_, _) Live_explore.result) =
  let stats = r.Live_explore.stats in
  match r.Live_explore.outcome with
  | Live_explore.No_fair_cycle ->
      Printf.sprintf "{\"outcome\": \"no_fair_cycle\", \"runs\": %d, %s}"
        stats.Explore_stats.runs (work_json stats)
  | Live_explore.Lasso c ->
      let pp ds =
        "["
        ^ String.concat ", "
            (List.map (fun d -> Printf.sprintf "%S" (dec_string d)) ds)
        ^ "]"
      in
      Printf.sprintf
        "{\"outcome\": \"lasso\", \"stem\": %s, \"cycle\": %s, \"stem_pp\": \
         %s, \"cycle_pp\": %s, \"period\": %d, %s}"
        (ints (Explore.codes_of_script c.Lasso.c_stem))
        (ints (Explore.codes_of_script c.Lasso.c_cycle))
        (pp c.Lasso.c_stem) (pp c.Lasso.c_cycle)
        (List.length c.Lasso.c_cycle)
        (work_json stats)

let cancelled_result (stats : Explore_stats.t) =
  Printf.sprintf "{\"outcome\": \"cancelled\", \"steps\": %d}"
    stats.Explore_stats.steps_executed

let error_result msg = Printf.sprintf "{\"outcome\": \"error\", \"message\": %S}" msg

let run_task ?cancel ?(progress = Progress.off) sp Full =
  match factory_of_spec sp with
  | Error e -> error_result e
  | Ok factory -> begin
      let obs = Obs.create ~tracing:false ~progress () in
      let run () =
        match sp.sp_kind with
        | `Explore ->
            safety_result
              (Explore.explore ~n:sp.sp_n ~factory ~invoke:safety_invoke
                 ~depth:sp.sp_depth ~max_crashes:sp.sp_crashes ~dpor:true
                 ~symmetry:true ~obs ?cancel ~check ())
        | `Live -> (
            match point_of_string ~n:sp.sp_n sp.sp_property with
            | Error e -> error_result e
            | Ok point ->
                live_result
                  (Live_explore.search ~n:sp.sp_n ~factory ~invoke:live_invoke
                     ~good ~point ~depth:sp.sp_depth ~max_crashes:sp.sp_crashes
                     ~max_period:sp.sp_max_period ~pump_ticks:sp.sp_pump
                     ~dpor:true ~obs ?cancel ()))
      in
      match run () with
      | result -> result
      | exception Explore.Interrupted stats -> cancelled_result stats
    end

(* ------------------------------------------------------------------ *)
(* Warm service.                                                       *)

let warm_result sp (r : Store.record) =
  match (sp.sp_kind, r.Store.r_verdict) with
  | `Explore, Store.V_ok runs ->
      Some
        (Printf.sprintf
           "{\"outcome\": \"ok\", \"runs\": %d, \"steps\": 0, \
            \"stored_steps\": %d}"
           runs r.Store.r_steps)
  | `Explore, Store.V_counterexample codes -> begin
      match factory_of_spec sp with
      | Error _ -> None
      | Ok factory -> begin
          match
            Explore.run_of_codes ~n:sp.sp_n ~factory ~invoke:safety_invoke
              codes
          with
          | ds, report when not (check report) ->
              Some
                (Printf.sprintf
                   "{\"outcome\": \"counterexample\", %s, \"steps\": %d, \
                    \"stored_steps\": %d}"
                   (witness_json ds) (List.length codes) r.Store.r_steps)
          | _ | (exception _) -> None
        end
    end
  | `Live, _
    when r.Store.r_max_period <> sp.sp_max_period
         || r.Store.r_pump_ticks <> sp.sp_pump ->
      None
  | `Live, Store.V_no_fair_cycle ->
      Some
        (Printf.sprintf
           "{\"outcome\": \"no_fair_cycle\", \"runs\": %d, \"steps\": 0, \
            \"stored_steps\": %d}"
           r.Store.r_runs r.Store.r_steps)
  | `Live, Store.V_lasso { stem; cycle } -> begin
      match (factory_of_spec sp, point_of_string ~n:sp.sp_n sp.sp_property) with
      | Ok factory, Ok point -> begin
          match
            Live_explore.validate_cert_codes ~n:sp.sp_n ~factory
              ~invoke:live_invoke ~good ~point ~pump_ticks:sp.sp_pump ~stem
              ~cycle ()
          with
          | Some c ->
              let pp ds =
                "["
                ^ String.concat ", "
                    (List.map (fun d -> Printf.sprintf "%S" (dec_string d)) ds)
                ^ "]"
              in
              Some
                (Printf.sprintf
                   "{\"outcome\": \"lasso\", \"stem\": %s, \"cycle\": %s, \
                    \"stem_pp\": %s, \"cycle_pp\": %s, \"period\": %d, \
                    \"steps\": 0, \"stored_steps\": %d}"
                   (ints stem) (ints cycle) (pp c.Lasso.c_stem)
                   (pp c.Lasso.c_cycle)
                   (List.length c.Lasso.c_cycle)
                   r.Store.r_steps)
          | None -> None
        end
      | _ -> None
    end
  | _ -> None
