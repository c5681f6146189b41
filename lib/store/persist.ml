open Slx_sim
open Slx_core

type source = Warm | Resumed of int | Cold | Uncached of string

let pp_source fmt = function
  | Warm -> Format.fprintf fmt "warm"
  | Resumed d -> Format.fprintf fmt "resumed from depth %d" d
  | Cold -> Format.fprintf fmt "cold"
  | Uncached why -> Format.fprintf fmt "uncached (%s)" why

let instance_digest ~n ~factory =
  Runner.Cursor.with_ ~n ~factory:(factory ()) Runner.Cursor.shared_digest

let query_key ~ident ~check ~n ~registry_digest ?(max_crashes = 0)
    ?(por = false) ?(dpor = false) ?(symmetry = false) ?(invoke_order = false)
    ?(proviso_bound = 2) () =
  Store.digest_string
    (Printf.sprintf "%s|%s|n=%d|rd=%d|mc=%d|por=%b|dpor=%b|sym=%b|io=%b|pb=%d"
       ident check n registry_digest max_crashes por dpor symmetry
       invoke_order proviso_bound)

(* ------------------------------------------------------------------ *)
(* Safety.                                                             *)

let frontier_of_store (f : Store.frontier) : Explore.frontier option =
  (* Safety seeds carry one sleep bitset word; a malformed seed list
     (hand-edited store) degrades to no-resume rather than an error. *)
  let ok = List.for_all (fun s -> List.length s.Store.sd_sleep <= 1) f.Store.f_seeds in
  if not ok then None
  else
    Some
      {
        Explore.fr_depth = 0 (* patched by caller *);
        fr_base_runs = f.Store.f_base_runs;
        fr_base_digest = f.Store.f_base_digest;
        fr_seeds =
          List.map
            (fun s ->
              {
                Explore.seed_script = s.Store.sd_script;
                seed_sleep =
                  (match s.Store.sd_sleep with [ w ] -> w | _ -> 0);
              })
            f.Store.f_seeds;
      }

let frontier_to_store (f : Explore.frontier) : Store.frontier =
  {
    Store.f_base_runs = f.Explore.fr_base_runs;
    f_base_digest = f.Explore.fr_base_digest;
    f_seeds =
      List.map
        (fun s ->
          {
            Store.sd_script = s.Explore.seed_script;
            sd_sleep = (if s.Explore.seed_sleep = 0 then [] else [ s.Explore.seed_sleep ]);
          })
        f.Explore.fr_seeds;
  }

let record_of_exploration ~qid ~depth ~inherited (e : ('inv, 'res) Explore.exploration) =
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
    r_steps = e.Explore.stats.Explore_stats.steps_executed + inherited;
    r_verdict = verdict;
    r_frontier = Option.map frontier_to_store e.Explore.frontier;
  }

let run_explore ~store ~qid ~n ~factory ~invoke ~depth ?(max_crashes = 0)
    ?(cache = true) ?cache_capacity ?(por = false) ?(dpor = false)
    ?(symmetry = false) ?(domains = 1) ?obs ?(sanitize = false)
    ?(compact = true) ?bitstate ?cancel ~check () =
  let explore ?resume ?(persist = true) () =
    Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~cache
      ?cache_capacity ~por ~dpor ~symmetry ~domains ?obs ~sanitize ~compact
      ?bitstate ~persist ?resume ?cancel ~check ()
  in
  match bitstate with
  | Some _ ->
      (* Bitstate verdicts are probabilistic; the store only holds
         exhaustive facts. *)
      (explore ~persist:false (), Uncached "bitstate")
  | None -> begin
      Store.bump store `Query;
      let finish_live source inherited =
        (* Run the engine (resumed or cold), store this answer's
           record, and flush — also on interruption, so a SIGINT'd
           session still pays its counters forward. *)
        let resume =
          match source with
          | Resumed _ -> (
              match Store.best_resumable store ~qid ~depth with
              | Some r -> (
                  match Option.bind r.Store.r_frontier frontier_of_store with
                  | Some f -> Some { f with Explore.fr_depth = r.Store.r_depth }
                  | None -> None)
              | None -> None)
          | _ -> None
        in
        match explore ?resume () with
        | e ->
            (match source with
            | Resumed _ ->
                Store.bump store
                  (`Resume
                    (max 0
                       (inherited
                       - e.Explore.stats.Explore_stats.steps_replayed)))
            | _ -> Store.bump store `Cold);
            Store.add store (record_of_exploration ~qid ~depth ~inherited e);
            Store.commit store;
            (e, source)
        | exception Explore.Interrupted stats ->
            Store.commit store;
            raise (Explore.Interrupted stats)
      in
      match Store.find store ~qid ~depth with
      | Some { Store.r_verdict = Store.V_ok runs; r_steps; r_frontier; _ } ->
          Store.bump store (`Warm r_steps);
          Store.commit store;
          ( {
              Explore.outcome = Explore.Ok runs;
              stats = Explore_stats.zero;
              witness_script = None;
              frontier =
                Option.bind r_frontier (fun f ->
                    Option.map
                      (fun fr -> { fr with Explore.fr_depth = depth })
                      (frontier_of_store f));
            },
            Warm )
      | Some { Store.r_verdict = Store.V_counterexample codes; r_steps; _ }
        -> begin
          (* Never trust a stored witness: replay it and re-run the
             check.  A reproduction is served; anything else is a
             rejected record (stale engine state the version header
             missed, or a tampered file) and we fall back cold. *)
          match Explore.run_of_codes ~n ~factory ~invoke codes with
          | ds, report when not (check report) ->
              Store.bump store (`Warm (max 0 (r_steps - List.length codes)));
              Store.commit store;
              ( {
                  Explore.outcome = Explore.Counterexample report;
                  stats = Explore_stats.zero;
                  witness_script = Some ds;
                  frontier = None;
                },
                Warm )
          | _ | (exception _) ->
              Store.bump store `Rejected;
              finish_live Cold 0
        end
      | Some _ ->
          (* A liveness verdict under a safety qid: impossible unless
             the file was forged — treat as rejected. *)
          Store.bump store `Rejected;
          finish_live Cold 0
      | None -> (
          if domains > 1 then
            (* The engine only cuts frontiers sequentially; resuming
               under a parallel run would silently go cold inside the
               engine and scramble the counters — plan cold here. *)
            finish_live Cold 0
          else
            match Store.best_resumable store ~qid ~depth with
            | Some r when Option.bind r.Store.r_frontier frontier_of_store <> None
              ->
                finish_live (Resumed r.Store.r_depth) r.Store.r_steps
            | _ -> finish_live Cold 0)
    end

(* ------------------------------------------------------------------ *)
(* Liveness.                                                           *)

let live_frontier_of_store ~depth ~max_period ~pump_ticks (f : Store.frontier)
    : Live_explore.live_frontier =
  {
    Live_explore.lf_depth = depth;
    lf_max_period = max_period;
    lf_pump_ticks = pump_ticks;
    lf_base_runs = f.Store.f_base_runs;
    lf_seeds =
      List.map
        (fun s ->
          {
            Live_explore.ls_script = s.Store.sd_script;
            ls_sleep = s.Store.sd_sleep;
          })
        f.Store.f_seeds;
  }

let live_frontier_to_store (f : Live_explore.live_frontier) : Store.frontier =
  {
    Store.f_base_runs = f.Live_explore.lf_base_runs;
    f_base_digest = 0;
    f_seeds =
      List.map
        (fun s ->
          {
            Store.sd_script = s.Live_explore.ls_script;
            sd_sleep = s.Live_explore.ls_sleep;
          })
        f.Live_explore.lf_seeds;
  }

let live_resumable ~max_period ~pump_ticks (r : Store.record) =
  r.Store.r_pump_ticks = pump_ticks
  && r.Store.r_max_period >= min max_period (r.Store.r_depth / 2)

let record_of_live ~qid ~depth ~max_period ~pump_ticks ~inherited
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
    r_steps = r.Live_explore.stats.Explore_stats.steps_executed + inherited;
    r_verdict = verdict;
    r_frontier = Option.map live_frontier_to_store r.Live_explore.frontier;
  }

let run_live ~store ~qid ~n ~factory ~invoke ~good ~point ~depth
    ?(max_crashes = 0) ?max_period ?pump_ticks ?(invoke_order = false)
    ?(dpor = false) ?proviso_bound ?(cache = true) ?cache_capacity ?obs
    ?(sanitize = false) ?(compact = true) ?cancel () =
  (* Resolve the depth-derived defaults here: the store needs the
     actual values to gate comparability across depths. *)
  let max_period = Option.value max_period ~default:(max 1 ((depth + 1) / 2)) in
  let pump_ticks = Option.value pump_ticks ~default:(4 * depth) in
  let search ?resume () =
    Live_explore.search ~n ~factory ~invoke ~good ~point ~depth ~max_crashes
      ~max_period ~pump_ticks ~invoke_order ~dpor ?proviso_bound ~cache
      ?cache_capacity ?obs ~sanitize ~compact ~persist:true ?resume ?cancel ()
  in
  Store.bump store `Query;
  let finish_live source inherited resume =
    match search ?resume () with
    | r ->
        (match source with
        | Resumed _ ->
            Store.bump store
              (`Resume
                (max 0
                   (inherited - r.Live_explore.stats.Explore_stats.steps_replayed)))
        | _ -> Store.bump store `Cold);
        Store.add store
          (record_of_live ~qid ~depth ~max_period ~pump_ticks ~inherited r);
        Store.commit store;
        (r, source)
    | exception Explore.Interrupted stats ->
        Store.commit store;
        raise (Explore.Interrupted stats)
  in
  let cold () = finish_live Cold 0 None in
  let of_record (r : Store.record) =
    live_frontier_of_store ~depth:r.Store.r_depth
      ~max_period:r.Store.r_max_period ~pump_ticks:r.Store.r_pump_ticks
  in
  let try_resume () =
    match Store.best_resumable store ~qid ~depth with
    | Some ({ Store.r_frontier = Some f; _ } as r)
      when live_resumable ~max_period ~pump_ticks r ->
        finish_live (Resumed r.Store.r_depth) r.Store.r_steps
          (Some (of_record r f))
    | _ -> cold ()
  in
  match Store.find store ~qid ~depth with
  | Some
      ({ Store.r_max_period = mp; r_pump_ticks = pt; _ } as r)
    when mp = max_period && pt = pump_ticks -> begin
      match r.Store.r_verdict with
      | Store.V_no_fair_cycle ->
          Store.bump store (`Warm r.Store.r_steps);
          Store.commit store;
          ( {
              Live_explore.outcome = Live_explore.No_fair_cycle;
              stats = Explore_stats.zero;
              frontier = Option.map (of_record r) r.Store.r_frontier;
            },
            Warm )
      | Store.V_lasso { stem; cycle } -> begin
          match
            Live_explore.validate_cert_codes ~n ~factory ~invoke ~good ~point
              ~pump_ticks ~stem ~cycle ()
          with
          | Some cert ->
              Store.bump store (`Warm (max 0 r.Store.r_steps));
              Store.commit store;
              ( {
                  Live_explore.outcome = Live_explore.Lasso cert;
                  stats = Explore_stats.zero;
                  frontier = None;
                },
                Warm )
          | None ->
              Store.bump store `Rejected;
              cold ()
        end
      | Store.V_ok _ | Store.V_counterexample _ ->
          (* A safety verdict under a liveness qid: forged file. *)
          Store.bump store `Rejected;
          cold ()
    end
  | Some _ ->
      (* Same depth, different period/pump budgets: not comparable;
         the fresh run supersedes the slot. *)
      cold ()
  | None -> try_resume ()
