open Slx_sim
open Slx_core

type source = Warm | Cold

let pp_source fmt = function
  | Warm -> Format.fprintf fmt "warm"
  | Cold -> Format.fprintf fmt "cold"

let instance_digest ~n ~factory =
  Runner.Cursor.with_ ~n ~factory:(factory ()) Runner.Cursor.shared_digest

let query_key ~ident ~check ~n ~registry_digest ?(max_crashes = 0)
    ?(dpor = false) ?(symmetry = false) ?(invoke_order = false)
    ?(proviso_bound = 2) () =
  Store.digest_string
    (Printf.sprintf "%s|%s|n=%d|rd=%d|mc=%d|dpor=%b|sym=%b|io=%b|pb=%d"
       ident check n registry_digest max_crashes dpor symmetry invoke_order
       proviso_bound)

(* An answer served from a stored record. *)
let warm store answer =
  Store.bump store `Warm;
  Store.commit store;
  (answer, Warm)

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

(* ------------------------------------------------------------------ *)
(* Safety.                                                             *)

let record_of_exploration ~qid ~depth (e : ('inv, 'res) Explore.exploration) =
  let verdict =
    match e.Explore.outcome with
    | Explore.Ok runs -> Store.V_ok runs
    | Explore.Counterexample _ ->
        Store.V_counterexample
          (Explore.codes_of_script (Option.get e.Explore.witness_script))
  in
  {
    Store.r_qid = qid;
    r_depth = depth;
    r_max_period = 0;
    r_pump_ticks = 0;
    r_runs = e.Explore.stats.Explore_stats.runs;
    r_steps = e.Explore.stats.Explore_stats.steps_executed;
    r_verdict = verdict;
  }

let run_explore ~store ~qid ~n ~factory ~invoke ~depth ?(max_crashes = 0)
    ?(cache = true) ?cache_capacity ?(dpor = false) ?(symmetry = false) ?obs
    ?(sanitize = false) ?cancel ~check () =
  Store.bump store `Query;
  let cold () =
    cold store (record_of_exploration ~qid ~depth) (fun () ->
        Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~cache
          ?cache_capacity ~dpor ~symmetry ?obs ~sanitize ?cancel ~check ())
  in
  match Store.find store ~qid ~depth with
  | Some { Store.r_verdict = Store.V_ok runs; _ } ->
      warm store
        {
          Explore.outcome = Explore.Ok runs;
          stats = Explore_stats.zero;
          witness_script = None;
        }
  | Some { Store.r_verdict = Store.V_counterexample codes; _ } -> begin
      (* Never trust a stored witness: replay it and re-run the
         check.  A reproduction is served; anything else is a
         rejected record (stale engine state the version header
         missed, or a tampered file) and we fall back cold. *)
      match Explore.run_of_codes ~n ~factory ~invoke codes with
      | ds, report when not (check report) ->
          warm store
            {
              Explore.outcome = Explore.Counterexample report;
              stats = Explore_stats.zero;
              witness_script = Some ds;
            }
      | _ | (exception _) ->
          Store.bump store `Rejected;
          cold ()
    end
  | Some _ ->
      (* A liveness verdict under a safety qid: impossible unless
         the file was forged — treat as rejected. *)
      Store.bump store `Rejected;
      cold ()
  | None -> cold ()

(* ------------------------------------------------------------------ *)
(* Liveness.                                                           *)

let record_of_live ~qid ~depth ~max_period ~pump_ticks
    (r : ('inv, 'res) Live_explore.result) =
  let verdict =
    match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> Store.V_no_fair_cycle
    | Live_explore.Lasso c ->
        Store.V_lasso
          {
            stem = Explore.codes_of_script c.Slx_liveness.Lasso.c_stem;
            cycle = Explore.codes_of_script c.Slx_liveness.Lasso.c_cycle;
          }
  in
  {
    Store.r_qid = qid;
    r_depth = depth;
    r_max_period = max_period;
    r_pump_ticks = pump_ticks;
    r_runs = r.Live_explore.stats.Explore_stats.runs;
    r_steps = r.Live_explore.stats.Explore_stats.steps_executed;
    r_verdict = verdict;
  }

let run_live ~store ~qid ~n ~factory ~invoke ~good ~point ~depth
    ?(max_crashes = 0) ?max_period ?pump_ticks ?(invoke_order = false)
    ?(dpor = false) ?proviso_bound ?(cache = true) ?cache_capacity ?obs
    ?(sanitize = false) ?cancel () =
  (* Resolve the depth-derived defaults here: a warm hit needs the
     stored record's budgets to equal the actual values. *)
  let max_period = Option.value max_period ~default:(max 1 ((depth + 1) / 2)) in
  let pump_ticks = Option.value pump_ticks ~default:(4 * depth) in
  Store.bump store `Query;
  let cold () =
    cold store (record_of_live ~qid ~depth ~max_period ~pump_ticks) (fun () ->
        Live_explore.search ~n ~factory ~invoke ~good ~point ~depth
          ~max_crashes ~max_period ~pump_ticks ~invoke_order ~dpor
          ?proviso_bound ~cache ?cache_capacity ?obs ~sanitize ?cancel ())
  in
  match Store.find store ~qid ~depth with
  | Some
      ({ Store.r_max_period = mp; r_pump_ticks = pt; _ } as r)
    when mp = max_period && pt = pump_ticks -> begin
      match r.Store.r_verdict with
      | Store.V_no_fair_cycle ->
          warm store
            {
              Live_explore.outcome = Live_explore.No_fair_cycle;
              stats = Explore_stats.zero;
            }
      | Store.V_lasso { stem; cycle } -> begin
          match
            Live_explore.validate_cert_codes ~n ~factory ~invoke ~good ~point
              ~pump_ticks ~stem ~cycle ()
          with
          | Some cert ->
              warm store
                {
                  Live_explore.outcome = Live_explore.Lasso cert;
                  stats = Explore_stats.zero;
                }
          | None ->
              Store.bump store `Rejected;
              cold ()
        end
      | Store.V_ok _ | Store.V_counterexample _ ->
          (* A safety verdict under a liveness qid: forged file. *)
          Store.bump store `Rejected;
          cold ()
    end
  | Some _ | None ->
      (* No record, or one under different period/pump budgets (not
         comparable; the fresh run supersedes the slot). *)
      cold ()
