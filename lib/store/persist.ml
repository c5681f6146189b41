open Slx_sim
open Slx_core

type source = Warm | Cold

let pp_source fmt = function
  | Warm -> Format.fprintf fmt "warm"
  | Cold -> Format.fprintf fmt "cold"

let instance_digest ~n ~factory =
  Runner.Cursor.with_ ~n ~factory:(factory ()) Runner.Cursor.shared_digest

let query_key ~ident ~check ~n ~registry_digest ?(max_crashes = 0)
    ?(dpor = false) ?(symmetry = false) ?(invoke_order = false) () =
  Store.digest_string
    (Printf.sprintf "%s|%s|n=%d|rd=%d|mc=%d|dpor=%b|sym=%b|io=%b" ident check n
       registry_digest max_crashes dpor symmetry invoke_order)

let record ~qid ~depth ~max_period ~pump_ticks ~runs ~steps verdict =
  {
    Store.r_qid = qid;
    r_depth = depth;
    r_max_period = max_period;
    r_pump_ticks = pump_ticks;
    r_runs = runs;
    r_steps = steps;
    r_verdict = verdict;
  }

(* ------------------------------------------------------------------ *)
(* Stored verdicts as warm answers.  Positive verdicts are trusted
   under the version + qid binding; a witness never is: it is replayed
   and re-checked, and one that does not reproduce is not served. *)

let served_exploration ~n ~factory ~invoke ~check verdict =
  let served outcome witness_script =
    Some { Explore.outcome; stats = Explore_stats.zero; witness_script }
  in
  match verdict with
  | Store.V_ok runs -> served (Explore.Ok runs) None
  | Store.V_counterexample codes -> begin
      match Explore.run_of_codes ~n ~factory ~invoke codes with
      | ds, report when not (check report) ->
          served (Explore.Counterexample report) (Some ds)
      | _ | (exception _) -> None
    end
  | Store.V_no_fair_cycle | Store.V_lasso _ -> None

let served_live ~n ~factory ~invoke ~good ~point ~pump_ticks verdict =
  let served outcome = Some { Live_explore.outcome; stats = Explore_stats.zero } in
  match verdict with
  | Store.V_no_fair_cycle -> served Live_explore.No_fair_cycle
  | Store.V_lasso { stem; cycle } ->
      Option.bind
        (Live_explore.validate_cert_codes ~n ~factory ~invoke ~good ~point
           ~pump_ticks ~stem ~cycle ())
        (fun cert -> served (Live_explore.Lasso cert))
  | Store.V_ok _ | Store.V_counterexample _ -> None

(* ------------------------------------------------------------------ *)
(* Answer planning.                                                    *)

(* Run the engine, store this answer's record, and flush — also on
   interruption, so a SIGINT'd session still pays its counters
   forward. *)
let cold store record run =
  match run () with
  | answer ->
      Store.bump store `Cold;
      Store.add store (record answer);
      Store.commit store;
      (answer, Cold)
  | exception Explore.Interrupted stats ->
      Store.commit store;
      raise (Explore.Interrupted stats)

(* Serve a stored record the validator vouched for; one it did not is
   rejected (stale engine state the version header missed, a forged
   or tampered file) and the query runs cold. *)
let warm_or_reject store served cold =
  match served with
  | Some answer ->
      Store.bump store `Warm;
      Store.commit store;
      (answer, Warm)
  | None ->
      Store.bump store `Rejected;
      cold ()

let run_explore ~store ~qid ~n ~factory ~invoke ~depth ?(max_crashes = 0)
    ?(cache = true) ?cache_capacity ?(dpor = false) ?(symmetry = false) ?obs
    ?(sanitize = false) ?cancel ~check () =
  Store.bump store `Query;
  let cold () =
    cold store
      (fun (e : (_, _) Explore.exploration) ->
        record ~qid ~depth ~max_period:0 ~pump_ticks:0
          ~runs:e.Explore.stats.Explore_stats.runs
          ~steps:e.Explore.stats.Explore_stats.steps_executed
          (match e.Explore.outcome with
          | Explore.Ok runs -> Store.V_ok runs
          | Explore.Counterexample _ ->
              Store.V_counterexample
                (Explore.codes_of_script (Option.get e.Explore.witness_script))))
      (fun () ->
        Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~cache
          ?cache_capacity ~dpor ~symmetry ?obs ~sanitize ?cancel ~check ())
  in
  match Store.find store ~qid ~depth with
  | Some r ->
      warm_or_reject store
        (served_exploration ~n ~factory ~invoke ~check r.Store.r_verdict)
        cold
  | None -> cold ()

let run_live ~store ~qid ~n ~factory ~invoke ~good ~point ~depth
    ?(max_crashes = 0) ?max_period ?pump_ticks ?(invoke_order = false)
    ?(dpor = false) ?(cache = true) ?cache_capacity ?obs ?(sanitize = false)
    ?cancel () =
  (* A warm hit needs the stored record's budgets to equal the actual
     values, so resolve the depth-derived defaults here. *)
  let max_period, pump_ticks =
    Live_explore.budgets ~depth ~max_period ~pump_ticks
  in
  Store.bump store `Query;
  let cold () =
    cold store
      (fun (r : (_, _) Live_explore.result) ->
        record ~qid ~depth ~max_period ~pump_ticks
          ~runs:r.Live_explore.stats.Explore_stats.runs
          ~steps:r.Live_explore.stats.Explore_stats.steps_executed
          (match r.Live_explore.outcome with
          | Live_explore.No_fair_cycle -> Store.V_no_fair_cycle
          | Live_explore.Lasso c ->
              Store.V_lasso
                {
                  stem = Explore.codes_of_script c.Slx_liveness.Lasso.c_stem;
                  cycle = Explore.codes_of_script c.Slx_liveness.Lasso.c_cycle;
                }))
      (fun () ->
        Live_explore.search ~n ~factory ~invoke ~good ~point ~depth
          ~max_crashes ~max_period ~pump_ticks ~invoke_order ~dpor ~cache
          ?cache_capacity ?obs ~sanitize ?cancel ())
  in
  match Store.find store ~qid ~depth with
  | Some r
    when r.Store.r_max_period = max_period && r.Store.r_pump_ticks = pump_ticks
    ->
      warm_or_reject store
        (served_live ~n ~factory ~invoke ~good ~point ~pump_ticks
           r.Store.r_verdict)
        cold
  | Some _ | None ->
      (* No record, or one under other period/pump budgets (not
         comparable; the fresh run supersedes the slot). *)
      cold ()
