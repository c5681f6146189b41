open Slx_sim
open Slx_core

type source = Warm | Cold

let pp_source fmt = function
  | Warm -> Format.fprintf fmt "warm"
  | Cold -> Format.fprintf fmt "cold"

let instance_digest ~n ~factory =
  Runner.Cursor.with_ ~n ~factory:(factory ()) Runner.Cursor.shared_digest

let query_key ~ident ~check ~n ~registry_digest ?(max_crashes = 0)
    ?(dpor = false) ?(symmetry = false) () =
  Store.digest_string
    (Printf.sprintf "%s|%s|n=%d|rd=%d|mc=%d|dpor=%b|sym=%b" ident check n
       registry_digest max_crashes dpor symmetry)

(* ------------------------------------------------------------------ *)
(* Answers as records, built in the process that ran the engine.       *)

let record ~qid ~depth ~max_period ~pump_ticks (stats : Explore_stats.t)
    verdict =
  {
    Store.r_qid = qid;
    r_depth = depth;
    r_max_period = max_period;
    r_pump_ticks = pump_ticks;
    r_runs = stats.Explore_stats.runs;
    r_steps = stats.Explore_stats.steps_executed;
    r_verdict = verdict;
  }

let exploration_record ~qid ~depth (e : (_, _) Explore.exploration) =
  record ~qid ~depth ~max_period:0 ~pump_ticks:0 e.Explore.stats
    (match e.Explore.outcome with
    | Explore.Ok runs -> Store.V_ok runs
    | Explore.Counterexample _ ->
        Store.V_counterexample
          (Explore.codes_of_script (Option.get e.Explore.witness_script)))

let live_record ~qid ~depth ~max_period ~pump_ticks
    (r : (_, _) Live_explore.result) =
  record ~qid ~depth ~max_period ~pump_ticks r.Live_explore.stats
    (match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> Store.V_no_fair_cycle
    | Live_explore.Lasso c ->
        Store.V_lasso
          {
            stem = Explore.codes_of_script c.Slx_liveness.Lasso.c_stem;
            cycle = Explore.codes_of_script c.Slx_liveness.Lasso.c_cycle;
          })

(* ------------------------------------------------------------------ *)
(* Stored verdicts as warm answers.  Positive verdicts are trusted
   under the version + qid binding; a witness never is: it is replayed
   and re-checked, and one that does not reproduce is not served. *)

(* A warm answer's stats: no work done, the producing run's count. *)
let stored_stats (r : Store.record) =
  { Explore_stats.zero with Explore_stats.runs = r.Store.r_runs }

let served_exploration ~n ~factory ~invoke ~check (r : Store.record) =
  let served outcome witness_script =
    Some { Explore.outcome; stats = stored_stats r; witness_script }
  in
  match r.Store.r_verdict with
  | Store.V_ok runs -> served (Explore.Ok runs) None
  | Store.V_counterexample codes -> begin
      match Explore.run_of_codes ~n ~factory ~invoke codes with
      | ds, report when not (check report) ->
          served (Explore.Counterexample report) (Some ds)
      | _ | (exception _) -> None
    end
  | Store.V_no_fair_cycle | Store.V_lasso _ -> None

let served_live ~n ~factory ~invoke ~good ~point ~pump_ticks (r : Store.record)
    =
  let served outcome = Some { Live_explore.outcome; stats = stored_stats r } in
  match r.Store.r_verdict with
  | Store.V_no_fair_cycle -> served Live_explore.No_fair_cycle
  | Store.V_lasso { stem; cycle } ->
      Option.bind
        (Live_explore.validate_cert_codes ~n ~factory ~invoke ~good ~point
           ~pump_ticks ~stem ~cycle ())
        (fun cert -> served (Live_explore.Lasso cert))
  | Store.V_ok _ | Store.V_counterexample _ -> None

(* ------------------------------------------------------------------ *)
(* The answer policy: warm, else compute and save.                    *)

let warm store ~qid ~depth ~max_period ~pump_ticks served =
  Store.bump store `Query;
  match Store.find store ~qid ~depth with
  | Some r
    when r.Store.r_max_period = max_period && r.Store.r_pump_ticks = pump_ticks
    -> begin
      (* A record the validator refuses (stale engine state the version
         header missed, a forged or tampered file) is rejected and the
         query runs cold, superseding it. *)
      match served r with
      | Some _ as answer ->
          Store.bump store `Warm;
          answer
      | None ->
          Store.bump store `Rejected;
          None
    end
  | Some _ | None ->
      (* No record, or one under other liveness budgets: a different
         bounded claim, so a cold miss. *)
      None

let save store record =
  Store.add store record;
  Store.bump store `Cold;
  Store.commit store

(* A warm hit changes only the counters, so [warm] leaves the commit
   to its caller; this one-query path (the CLI's) pays it at once.
   The store is committed also on interruption, so a SIGINT'd session
   still pays its counters forward. *)
let answer store ~qid ~depth ~max_period ~pump_ticks ~served ~record compute =
  match warm store ~qid ~depth ~max_period ~pump_ticks served with
  | Some answer ->
      Store.commit store;
      (answer, Warm)
  | None -> (
      match compute () with
      | answer ->
          save store (record answer);
          (answer, Cold)
      | exception Explore.Interrupted stats ->
          Store.commit store;
          raise (Explore.Interrupted stats))
