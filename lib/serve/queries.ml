open Slx_sim
open Slx_core
open Slx_liveness
open Slx_consensus
module Json = Slx_obs.Json
module Obs = Slx_obs.Obs
module Progress = Slx_obs.Progress
module Store = Slx_store.Store
module Persist = Slx_store.Persist

(* ------------------------------------------------------------------ *)
(* Vocabulary: implementations and freedom points, as the CLI names
   them. *)

type factory =
  unit -> (Consensus_type.invocation, Consensus_type.response) Runner.factory

let point_of_string ~n s =
  let unknown () = Error ("unknown property " ^ Json.quote s) in
  match s with
  | "obstruction" -> Ok Freedom.obstruction_freedom
  | "lock" -> Ok (Freedom.lock_freedom ~n)
  | "wait" -> Ok (Freedom.wait_freedom ~n)
  | s -> begin
      match String.split_on_char ',' s with
      | [ l; k ] -> begin
          match
            (int_of_string_opt (String.trim l), int_of_string_opt (String.trim k))
          with
          | Some l, Some k when 1 <= l && l <= k && k <= n ->
              Ok (Freedom.make ~l ~k)
          | Some l, Some k when 1 <= k && k < l ->
              Error
                (Printf.sprintf "property %s out of range: l %d exceeds k %d"
                   (Json.quote s) l k)
          | Some l, Some k when 1 <= l && l <= k ->
              Error
                (Printf.sprintf "property %s out of range: k %d exceeds n %d"
                   (Json.quote s) k n)
          | _ -> unknown ()
        end
      | _ -> unknown ()
    end

let factory_of_impl : string -> (factory, string) result = function
  | "cas" -> Ok (fun () -> Cas_consensus.factory ())
  | "register" -> Ok (fun () -> Register_consensus.factory ())
  | "selfish" -> Ok (fun () -> Selfish_consensus.factory ())
  | other -> Error ("unknown implementation " ^ Json.quote other)

let safety_invoke = Explore.workload_invoke Consensus_type.propose_once
let live_invoke = Explore.workload_invoke Consensus_type.propose_forever
let check r = Consensus_safety.check r.Run_report.history

let dec_string = function
  | Driver.Schedule p -> Printf.sprintf "S%d" p
  | Driver.Invoke (p, Consensus_type.Propose v) -> Printf.sprintf "I%d(%d)" p v
  | Driver.Crash p -> Printf.sprintf "C%d" p
  | Driver.Stop -> "stop"

(* ------------------------------------------------------------------ *)
(* The query record.                                                   *)

type spec = {
  sp_kind : [ `Explore | `Live ];
  sp_impl : string;
  sp_property : string;
  sp_n : int;
  sp_depth : int;
  sp_crashes : int;
  sp_max_period : int;
  sp_pump : int;
  sp_dpor : bool;
}

let make ~kind ~impl ~property ~n ~depth ~crashes ~max_period ~pump ~dpor =
  let live = kind = `Live in
  (* The liveness budgets are resolved (and checked) for live queries
     only; a safety query has none. *)
  let max_period, pump =
    if live then Live_explore.budgets ~depth ~max_period ~pump_ticks:pump
    else (0, 0)
  in
  let range name v = Error (Printf.sprintf "%s %d out of range" name v) in
  if depth < 1 || depth > 64 then range "depth" depth
  else if n < 1 || n > 16 then range "n" n
  else if crashes < 0 then range "crashes" crashes
  else if live && max_period < 1 then range "max_period" max_period
  else if live && pump < 1 then range "pump" pump
  else
    let point =
      if live then point_of_string ~n property else Ok Freedom.obstruction_freedom
    in
    match (factory_of_impl impl, point) with
    | Error e, _ | _, Error e -> Error e
    | Ok _, Ok _ ->
        Ok
          {
            sp_kind = kind;
            sp_impl = impl;
            sp_property = (if live then property else "");
            sp_n = n;
            sp_depth = depth;
            sp_crashes = crashes;
            sp_max_period = max_period;
            sp_pump = pump;
            sp_dpor = dpor || not live;
          }

(* [make] admitted the spec, so its vocabulary resolves. *)
let factory sp = Result.get_ok (factory_of_impl sp.sp_impl)
let point sp = Result.get_ok (point_of_string ~n:sp.sp_n sp.sp_property)

(* ------------------------------------------------------------------ *)
(* Wire forms.  The reduction settings are not on the wire: a served
   live query runs DPOR, as the CLI does by default. *)

let kind_string = function `Explore -> "explore" | `Live -> "live"

(* A member of the wrong JSON type is refused: never truncated to an
   integer, never read as its default. *)
let spec_of_json j =
  let member k what of_json =
    match Json.member k j with
    | None -> Ok None
    | Some v -> begin
        match of_json v with
        | Some x -> Ok (Some x)
        | None -> Error (Printf.sprintf "%s must be %s" k what)
      end
  in
  let str k = member k "a string" Json.str in
  let int k =
    member k "an integer" (function Json.Int i -> Some i | _ -> None)
  in
  let ( let* ) = Result.bind in
  let* kind = str "kind" in
  let* impl = str "impl" in
  let* property = str "property" in
  let* n = int "n" in
  let* depth = int "depth" in
  let* crashes = int "crashes" in
  let* max_period = int "max_period" in
  let* pump = int "pump" in
  match kind with
  | Some other when other <> "explore" && other <> "live" ->
      Error ("unknown kind " ^ Json.quote other)
  | kind ->
      make
        ~kind:(if kind = Some "live" then `Live else `Explore)
        ~impl:(Option.value impl ~default:"cas")
        ~property:(Option.value property ~default:"obstruction")
        ~n:(Option.value n ~default:2)
        ~depth:(Option.value depth ~default:8)
        ~crashes:(Option.value crashes ~default:0)
        ~max_period ~pump ~dpor:true

let spec_to_json sp =
  Printf.sprintf
    "{\"kind\": \"%s\", \"impl\": %s, \"property\": %s, \"n\": %d, \
     \"depth\": %d, \"crashes\": %d, \"max_period\": %d, \"pump\": %d}"
    (kind_string sp.sp_kind) (Json.quote sp.sp_impl)
    (Json.quote sp.sp_property) sp.sp_n sp.sp_depth sp.sp_crashes
    sp.sp_max_period sp.sp_pump

(* The check a query runs.  A live property is bound through the
   freedom point it names, so [obstruction] and [1,1] are one query. *)
let check_name ~kind ~n property =
  match kind with
  | `Explore -> "consensus-safety"
  | `Live ->
      "live:"
      ^ Format.asprintf "%a" Freedom.pp
          (Result.get_ok (point_of_string ~n property))

(* [qid] binds every field by name: a field added to [spec] does not
   compile here until it is bound, or named as one of the per-record
   fields (depth and the liveness budgets) that a qid leaves to the
   record's slot.  The reduction bits are those the query runs under:
   DPOR and symmetry for safety, [sp_dpor] without symmetry for
   liveness. *)
let qid
    {
      sp_kind;
      sp_impl;
      sp_property;
      sp_n;
      sp_depth = _;
      sp_crashes;
      sp_max_period = _;
      sp_pump = _;
      sp_dpor;
    } =
  Persist.query_key ~ident:sp_impl
    ~check:(check_name ~kind:sp_kind ~n:sp_n sp_property)
    ~n:sp_n
    ~registry_digest:
      (Persist.instance_digest ~n:sp_n
         ~factory:(Result.get_ok (factory_of_impl sp_impl)))
    ~max_crashes:sp_crashes ~dpor:sp_dpor
    ~symmetry:(sp_kind = `Explore) ()

let slot sp = (qid sp, sp.sp_depth, sp.sp_max_period, sp.sp_pump)

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

type answer =
  | Safety of
      (Consensus_type.invocation, Consensus_type.response) Explore.exploration
  | Live of
      (Consensus_type.invocation, Consensus_type.response) Live_explore.result

let record sp = function
  | Safety e -> Persist.exploration_record ~qid:(qid sp) ~depth:sp.sp_depth e
  | Live r ->
      Persist.live_record ~qid:(qid sp) ~depth:sp.sp_depth
        ~max_period:sp.sp_max_period ~pump_ticks:sp.sp_pump r

(* A stored record as this query's answer, through the store's own
   validators. *)
let served sp r =
  match sp.sp_kind with
  | `Explore ->
      Option.map
        (fun e -> Safety e)
        (Persist.served_exploration ~n:sp.sp_n ~factory:(factory sp)
           ~invoke:safety_invoke ~check r)
  | `Live ->
      Option.map
        (fun l -> Live l)
        (Persist.served_live ~n:sp.sp_n ~factory:(factory sp)
           ~invoke:live_invoke ~good:Consensus_type.good ~point:(point sp)
           ~pump_ticks:sp.sp_pump r)

let run ?store ?(obs = Obs.disabled) ?cancel sp =
  let n = sp.sp_n and factory = factory sp and depth = sp.sp_depth in
  let max_crashes = sp.sp_crashes in
  let compute () =
    match sp.sp_kind with
    | `Explore ->
        Safety
          (Explore.explore ~n ~factory ~invoke:safety_invoke ~depth ~max_crashes
             ~dpor:true ~symmetry:true ~obs ?cancel ~check ())
    | `Live ->
        Live
          (Live_explore.search ~n ~factory ~invoke:live_invoke
             ~good:Consensus_type.good ~point:(point sp) ~depth ~max_crashes
             ~max_period:sp.sp_max_period ~pump_ticks:sp.sp_pump
             ~dpor:sp.sp_dpor ~obs ?cancel ())
  in
  match store with
  | None -> (compute (), None)
  | Some store ->
      let answer, source =
        Persist.answer store ~qid:(qid sp) ~depth ~max_period:sp.sp_max_period
          ~pump_ticks:sp.sp_pump ~served:(served sp) ~record:(record sp) compute
      in
      (answer, Some source)

(* Figure 1a by search: each (l,k) point is the live query that [slx
   live-explore --impl register --crashes n-1 --no-dpor] runs.  The
   one-level DPOR tree misses lassos, so the panel walks the unreduced
   tree; [n - 1] crashes give the obstruction-style points their solo
   windows. *)
let consensus_exhaustive ?(n = 2) ?(depth = 10) () =
  let cell point =
    let property = Printf.sprintf "%d,%d" (Freedom.l point) (Freedom.k point) in
    let sp =
      make ~kind:`Live ~impl:"register" ~property ~n ~depth ~crashes:(n - 1)
        ~max_period:None ~pump:None ~dpor:false
    in
    match fst (run (Result.get_ok sp)) with
    | Live { Live_explore.outcome = Live_explore.Lasso _; _ } ->
        (point, Figure1.Excluded)
    | Live _ | Safety _ -> (point, Figure1.Not_excluded)
  in
  {
    Figure1.name = "Figure 1a (exhaustive): consensus, fair-cycle search";
    n;
    cells = List.map cell (Freedom.all ~n);
    adversary_runs = 0;
    positive_runs = 0;
  }

type mode = Full

let ints xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

let pps ds =
  "["
  ^ String.concat ", " (List.map (fun d -> Json.quote (dec_string d)) ds)
  ^ "]"

(* An answer's verdict members, ahead of its work members. *)
let verdict_json = function
  | Safety { Explore.outcome = Explore.Ok runs; _ } ->
      Printf.sprintf "\"outcome\": \"ok\", \"runs\": %d" runs
  | Safety { Explore.outcome = Explore.Counterexample _; witness_script; _ } ->
      let ds = Option.get witness_script in
      Printf.sprintf
        "\"outcome\": \"counterexample\", \"witness\": %s, \"witness_pp\": %s"
        (ints (Explore.codes_of_script ds)) (pps ds)
  | Live { Live_explore.outcome = Live_explore.No_fair_cycle; stats } ->
      Printf.sprintf "\"outcome\": \"no_fair_cycle\", \"runs\": %d"
        stats.Explore_stats.runs
  | Live { Live_explore.outcome = Live_explore.Lasso c; _ } ->
      Printf.sprintf
        "\"outcome\": \"lasso\", \"stem\": %s, \"cycle\": %s, \"stem_pp\": %s, \
         \"cycle_pp\": %s, \"period\": %d"
        (ints (Explore.codes_of_script c.Lasso.c_stem))
        (ints (Explore.codes_of_script c.Lasso.c_cycle))
        (pps c.Lasso.c_stem) (pps c.Lasso.c_cycle)
        (List.length c.Lasso.c_cycle)

(* A computed answer's result line: the verdict, a clean safety
   verdict's history digest, and the work done — [steps] executed, of
   which [steps_replayed] re-established a sibling's configuration by
   replaying its decision prefix. *)
let computed_json answer =
  let stats =
    match answer with
    | Safety e -> e.Explore.stats
    | Live r -> r.Live_explore.stats
  in
  let digest =
    match answer with
    | Safety { Explore.outcome = Explore.Ok _; _ } ->
        Printf.sprintf ", \"digest\": %d" stats.Explore_stats.history_digest
    | _ -> ""
  in
  Printf.sprintf "{%s%s, \"steps\": %d, \"steps_replayed\": %d}"
    (verdict_json answer) digest stats.Explore_stats.steps_executed
    stats.Explore_stats.steps_replayed

let error_result msg =
  Printf.sprintf "{\"outcome\": \"error\", \"message\": %s}" (Json.quote msg)

let work ?(progress = Progress.off) sp =
  let answer, _ = run ~obs:(Obs.create ~tracing:false ~progress ()) sp in
  (computed_json answer, record sp answer)

let run_task ?progress sp Full = fst (work ?progress sp)

(* ------------------------------------------------------------------ *)
(* Warm service.                                                       *)

(* A warm answer explores nothing: its only work is replaying a
   counterexample, one step per decision.  A clean liveness verdict
   reports the stored run count. *)
let warm_result sp (r : Store.record) =
  Option.map
    (fun answer ->
      let steps =
        match answer with
        | Safety e ->
            List.length (Option.value e.Explore.witness_script ~default:[])
        | Live _ -> 0
      in
      Printf.sprintf "{%s, \"steps\": %d, \"stored_steps\": %d}"
        (verdict_json answer) steps r.Store.r_steps)
    (served sp r)
