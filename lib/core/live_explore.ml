open Slx_history
open Slx_sim
open Slx_liveness
module Telemetry = Slx_obs.Telemetry
module Progress = Slx_obs.Progress
module Obs = Slx_obs.Obs
module Clock = Slx_obs.Clock

type ('inv, 'res) outcome =
  | Lasso of ('inv, 'res) Lasso.cert
  | No_fair_cycle

type ('inv, 'res) result = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;
}

exception Found_lasso

(* Internal: the [?cancel] poll fired; converted to
   [Explore.Interrupted] at the top level. *)
exception Cancelled

(* Transposition keys pair the raw configuration fingerprint with the
   last [2 * max_period] abstract trace cells: every candidate cycle
   examined at or below a node is a function of the configuration (the
   fingerprint, which embeds the full history and hence all response
   payloads) and of at most that much trace suffix, so two prefixes
   agreeing on both have identical candidate sets below — an entry is
   written only for completed lasso-free subtrees, and stores the
   subtree's run count, credited to [runs] on a hit.  Under DPOR the
   reduced subtree additionally depends on the sleep set and on each
   sleeper's ignoring streak (the proviso counter), so the sleep set
   joins the key; with DPOR off it is always [].

   The key is interned flat ({!Intern.Ints}) into one dense id: the
   cursor's [compact_key] (which stands in for the fingerprint), then
   the trace suffix as interned cell ids (the walk interns cells as it
   emits them), length-prefixed so cell ids and sleeper entries cannot
   alias, then each sleeper as the two ints [proc; streak].

   Only nodes with [2 * max_period < len < depth] are keyed.  The key
   carries the time ([len]), and every decision's cell names its
   process and kind ([pK:step], [pK:inv], [pK:crash]), so at
   [len <= 2 * max_period] the cell suffix spells out the node's whole
   script: no other node of the walk has that key, and a lookup could
   only miss.  Leaves ([len = depth]) are not keyed: a hit would save
   one candidate evaluation while every leaf pays for a key.  When no
   node qualifies ([depth <= 2 * max_period + 1], which includes the
   default period bound) the search builds no cache at all — no table,
   no history-interning hook, and no cell is interned (doc/model.md
   §7).  No bitstate variant here, ever: a false hit would silently
   truncate the fair-cycle search, and [No_fair_cycle] is an
   exhaustiveness claim (doc/model.md §10). *)

type ('inv, 'res) state = {
  sink : Telemetry.sink;
  progress : Progress.t;
  mutable sample : unit -> Progress.sample;
  mutable nodes : int;
  mutable runs : int;
  mutable replayed : int;
  mutable avoided : int;
  mutable hits : int;
  mutable invoke_pruned : int;
  mutable por_pruned : int;
  mutable reversals : int;
  mutable proviso : int;
  mutable cycles : int;
  mutable fair : int;
  mutable found : ('inv, 'res) Lasso.cert option;
  ticks : int ref;
  table : (int, int) Clock_cache.t option;
      (* The suffix cache, mapping a key to its subtree's run count;
         [None] when no node of the search can be keyed. *)
  shadow : Runtime.shadow option;  (* non-raising: counts only *)
  probe : Runtime.probe option;
      (* DPOR observed-access probe shared by all cursors of this
         (sequential) search; recording only. *)
  encode : (int -> ('inv, 'res) Event.t -> int) option;
      (* {!Explore.history_encoder}, installed exactly when the cache
         is live. *)
  cells_pool : string list Intern.t;
      (* Interns abstract trace cells, so the key's trace suffix is a
         list of small ints. *)
  keys : Intern.Ints.t;
      (* Interns the flat key arrays into the dense ids the suffix
         cache is keyed on. *)
}

let new_state ?capacity ?(sink = Telemetry.null) ?(progress = Progress.off)
    ?(sanitize = false) ?(dpor = false) ?(cache = false) () =
  {
    sink;
    progress;
    sample = (fun () -> Progress.zero);
    nodes = 0;
    runs = 0;
    replayed = 0;
    avoided = 0;
    hits = 0;
    invoke_pruned = 0;
    por_pruned = 0;
    reversals = 0;
    proviso = 0;
    cycles = 0;
    fair = 0;
    found = None;
    ticks = ref 0;
    table =
      (if cache then Some (Clock_cache.create ?capacity ~sink ()) else None);
    shadow =
      (if sanitize then
         Some (Runtime.make_shadow ~record:false ~raise_on_violation:false ())
       else None);
    probe = (if dpor then Some (Runtime.make_probe ()) else None);
    encode = (if cache then Some (Explore.history_encoder ()) else None);
    cells_pool = Intern.create ();
    keys = Intern.Ints.create ();
  }

(* Install the progress sample: the live search is sequential, so the
   snapshot is a plain read of the single state's counters. *)
let wire_progress st =
  if Progress.enabled st.progress then
    st.sample <-
      (fun () ->
        {
          Progress.s_nodes = st.nodes;
          s_runs = st.runs;
          s_steps = !(st.ticks);
          s_cache_entries =
            Option.fold ~none:0 ~some:Clock_cache.length st.table;
          s_cache_capacity =
            Option.value ~default:0 (Option.bind st.table Clock_cache.capacity);
          s_cycles = st.cycles;
        })

let stats_of_state ~elapsed_ns ~events_dropped st : Explore_stats.t =
  {
    Explore_stats.zero with
    Explore_stats.nodes = st.nodes;
    runs = st.runs;
    steps_executed = !(st.ticks);
    steps_replayed = st.replayed;
    replays_avoided = st.avoided;
    cache_hits = st.hits;
    cache_entries = Option.fold ~none:0 ~some:Clock_cache.length st.table;
    cache_evictions = Option.fold ~none:0 ~some:Clock_cache.evictions st.table;
    por_prunes = st.por_pruned;
    race_reversals = st.reversals;
    invoke_order_prunes = st.invoke_pruned;
    proviso_wakes = st.proviso;
    cycles_examined = st.cycles;
    fair_cycles = st.fair;
    footprint_violations =
      (match st.shadow with
      | Some sh -> Runtime.shadow_violation_count sh
      | None -> 0);
    elapsed_ns;
    events_dropped;
  }

let rec take k xs =
  if k <= 0 then []
  else match xs with [] -> [] | x :: tl -> x :: take (k - 1) tl

let rec drop k xs =
  if k <= 0 then xs else match xs with [] -> [] | _ :: tl -> drop (k - 1) tl

(* The abstract cell of the tick that applied [d] and appended the
   events [fresh]: exactly what {!Lasso.tick_cells} reports for that
   tick, so certificates built from these cells replay-compare
   directly. *)
let cell_of d fresh =
  (match d with
  | Driver.Schedule p -> [ Printf.sprintf "p%d:step" p ]
  | _ -> [])
  @ List.map Lasso.skeleton fresh

let goods_of ~good fresh =
  List.fold_left
    (fun acc e ->
      match Event.response e with
      | Some res when good res -> Proc.Set.add (Event.proc e) acc
      | _ -> acc)
    Proc.Set.empty fresh

(* Evaluate every candidate cycle anchored at the current node: for
   each period [p <= max_period], the suffix of the last [2p] ticks
   whose per-tick cells are [p]-periodic (two full repetitions
   observed).  A candidate is a fair cycle when every correct,
   non-blocked process takes a grant on it; it violates [point] per
   {!Freedom.violated_on_cycle}; and it is accepted only if its
   certificate {e pumps}: replaying stem + cycle^reps through a fresh
   instance reproduces the cells and boundary digest on every
   repetition and the pumped window carries the standard bounded
   violation.  Raises {!Found_lasso} with [st.found] set on the first
   accepted candidate (shortest period first). *)
let eval_candidates st ~factory ~good ~point ~max_period ~pump_ticks ~blocked
    cursor rev_script rev_cells rev_goods len =
  if len >= 2 then begin
    let view = Runner.Cursor.view cursor in
    let correct =
      Proc.Set.of_list
        (List.filter
           (fun p -> view.Driver.status p <> Runtime.Crashed)
           (Proc.all ~n:view.Driver.n))
    in
    let pmax = min max_period (len / 2) in
    let cells = Array.of_list (take (2 * pmax) rev_cells) in
    let periodic p =
      let ok = ref (Array.length cells >= 2 * p) in
      for i = 0 to p - 1 do
        if !ok && cells.(i) <> cells.(i + p) then ok := false
      done;
      !ok
    in
    for p = 1 to pmax do
      if st.found = None && periodic p then begin
        st.cycles <- st.cycles + 1;
        let cycle_rev = take p rev_script in
        let granted =
          List.fold_left
            (fun acc d ->
              match d with
              | Driver.Schedule q -> Proc.Set.add q acc
              | _ -> acc)
            Proc.Set.empty cycle_rev
        in
        let fair_cycle =
          Proc.Set.subset (Proc.Set.diff correct blocked) granted
        in
        let progressed =
          List.fold_left Proc.Set.union Proc.Set.empty (take p rev_goods)
        in
        let fair_violating =
          fair_cycle
          && Freedom.violated_on_cycle ~correct ~active:granted ~progressed
               point
        in
        Telemetry.emit st.sink Telemetry.Cycle_candidate p
          (if fair_violating then 1 else 0);
        if fair_violating then begin
          st.fair <- st.fair + 1;
          let cert =
            Lasso.cert_of_cursor
              ~stem:(List.rev (drop p rev_script))
              ~cycle:(List.rev cycle_rev)
              ~cells:(List.rev (take p rev_cells))
              cursor
          in
          let reps = max 2 ((pump_ticks + p - 1) / p) in
          (* The pump span closes with its verdict on every path —
             rejected, refuted, or accepted — before [Found_lasso] can
             unwind, so traces stay balanced. *)
          Telemetry.emit st.sink Telemetry.Pump_start p 0;
          match
            Lasso.pump ~factory:(factory ()) ~ticks:st.ticks ~repetitions:reps
              cert
          with
          | Error _ -> Telemetry.emit st.sink Telemetry.Pump_verdict p 0
          | Ok rep ->
              let certified =
                Proc.Set.subset (Fairness.starved rep) blocked
                && (not (Freedom.holds ~good rep point))
                && Option.is_some (Lasso.window_period rep)
              in
              Telemetry.emit st.sink Telemetry.Pump_verdict p
                (if certified then 1 else 0);
              if certified then begin
                st.found <- Some cert;
                raise Found_lasso
              end
        end
      end
    done
  end

let search ~n ~factory ~invoke ~good ~point ~depth ?(max_crashes = 0)
    ?max_period ?pump_ticks ?(invoke_order = false) ?(dpor = false)
    ?proviso_bound ?(cache = true) ?cache_capacity ?(obs = Obs.disabled)
    ?(sanitize = false) ?(compact = true) ?cancel () =
  if not compact then invalid_arg "Live_explore.search: compact must be true";
  let t0 = Clock.now_ns () in
  let cancel = match cancel with Some f -> f | None -> fun () -> false in
  (* Default period bound: ceil(depth / 2), the largest period for
     which two full repetitions fit in a depth-bounded suffix at {e
     some} node of the walk (detection at a node of length [len] needs
     [2p <= len]; the deepest nodes have [len = depth]).  A plain
     [depth / 2] floor is equivalent for detection — an odd depth's
     last tick cannot complete a second repetition — but ceil keeps
     the documented bound honest at odd depths and costs nothing. *)
  let max_period = Option.value max_period ~default:(max 1 ((depth + 1) / 2)) in
  let pump_ticks = Option.value pump_ticks ~default:(4 * depth) in
  (* Bounded-ignoring proviso: a process may stay asleep through at
     most this many consecutive edges of the walk before being
     force-woken, so on any retained cycle of period >= the bound
     every slept process gets re-enabled within one repetition — the
     cycle proviso that keeps the sleep-set reduction sound for
     fair-cycle detection.  Default 2, the minimal nontrivial period:
     period-1 fair cycles need no protection (a sleeper is Ready and
     correct, so a cycle that never grants it is not fair in the full
     graph either), and larger bounds can ignore a transition across a
     whole short cycle and silently miss its lasso. *)
  let proviso_bound = Option.value proviso_bound ~default:2 in
  (* The cache engages only if some node can be keyed, i.e. some
     [len] has [2 * max_period < len < depth] (see the key comment). *)
  let cache = cache && depth > (2 * max_period) + 1 in
  let st =
    new_state ?capacity:cache_capacity
      ~sink:(Obs.sink obs)
      ~progress:(Obs.progress obs) ~sanitize ~dpor ~cache ()
  in
  wire_progress st;
  let all_procs = Proc.all ~n in
  (* The decision menu, in the same canonical order as {!Explore}:
     step/invoke process 1..n, then (under the crash budget) crash
     process 1..n — so the emitted certificate is the
     lexicographically least in that order.  [invoke_order] is the one
     reduction sound for cycle detection: when several idle processes
     could be invoked, offer only the least one's invocation
     (invocations commute with everything, and the normalization is
     configuration-local, so it maps periodic runs to periodic runs —
     unlike the safety engine's path-dependent sleep sets). *)
  let menu view len crashes =
    if len >= depth then []
    else begin
      let seen_invoke = ref false in
      let steps =
        List.concat_map
          (fun p ->
            match view.Driver.status p with
            | Runtime.Ready -> [ Driver.Schedule p ]
            | Runtime.Idle -> begin
                match invoke view p with
                | Some inv ->
                    if invoke_order && !seen_invoke then begin
                      st.invoke_pruned <- st.invoke_pruned + 1;
                      Telemetry.emit st.sink Telemetry.Invoke_prune len 1;
                      []
                    end
                    else begin
                      seen_invoke := true;
                      [ Driver.Invoke (p, inv) ]
                    end
                | None -> []
              end
            | Runtime.Crashed -> [])
          all_procs
      in
      let crash_branches =
        if crashes < max_crashes then
          List.filter_map
            (fun p ->
              if view.Driver.status p = Runtime.Crashed then None
              else Some (Driver.Crash p))
            all_procs
        else []
      in
      steps @ crash_branches
    end
  in
  let blocked_at view =
    Proc.Set.of_list
      (List.filter
         (fun p ->
           view.Driver.status p = Runtime.Idle
           && Option.is_none (invoke view p))
         all_procs)
  in
  (* Settle a child's candidate sleep set once its edge [d] has
     executed (DPOR only).  Three filters, in order: (1) race
     reversal — wake every sleeper whose pending footprint conflicts
     with the accesses [d] actually performed; (2) the decision kind —
     crashes wake everyone (handled by the caller passing [] as the
     candidate), invocations are process-local and keep everyone;
     (3) the bounded-ignoring proviso — bump each survivor's streak
     and force-wake those that reach [proviso_bound]. *)
  let settle_sleep child d candidate len =
    let advanced =
      match d with
      | Driver.Schedule _ ->
          let observed = Dpor.observed_step_mask st.probe in
          let keep, woken =
            List.partition
              (fun (z, _) ->
                not
                  (Dpor.wakes_mask ~observed
                     ~pending:(Runner.Cursor.pending_mask child z)))
              candidate
          in
          if woken <> [] then begin
            st.reversals <- st.reversals + List.length woken;
            Telemetry.emit st.sink Telemetry.Race_reversal len
              (List.length woken)
          end;
          keep
      | _ -> candidate
    in
    let kept, expired =
      List.partition (fun (_, streak) -> streak + 1 < proviso_bound) advanced
    in
    if expired <> [] then begin
      st.proviso <- st.proviso + List.length expired;
      Telemetry.emit st.sink Telemetry.Proviso_wake len (List.length expired)
    end;
    List.map (fun (z, streak) -> (z, streak + 1)) kept
  in
  (* As in {!Explore}: every cursor of the search is bracketed, a
     sibling's disposed of as soon as its subtree is done. *)
  let with_cursor ?prefix ?hist_id f =
    Runner.Cursor.with_ ~n ~factory:(factory ()) ~ticks:st.ticks
      ?shadow:st.shadow ?probe:st.probe ?encode:st.encode ?prefix ?hist_id f
  in
  (* As in {!Explore}: [visit] wraps [visit_body] in the node span,
     closed on every exit ([Found_lasso] unwinds included).  [sleep]
     carries each slept process with its ignoring streak; [] with DPOR
     off. *)
  let rec visit cursor rev_script rev_cells rev_cids rev_goods len crashes
      sleep =
    st.nodes <- st.nodes + 1;
    Progress.tick st.progress st.sample;
    if Telemetry.enabled st.sink then begin
      Telemetry.emit st.sink Telemetry.Node_enter len 0;
      Fun.protect
        ~finally:(fun () ->
          Telemetry.emit st.sink Telemetry.Node_leave len 0)
        (fun () ->
          visit_body cursor rev_script rev_cells rev_cids rev_goods len
            crashes sleep)
    end
    else
      visit_body cursor rev_script rev_cells rev_cids rev_goods len crashes
        sleep
  and visit_body cursor rev_script rev_cells rev_cids rev_goods len crashes
      sleep =
    if cancel () then raise Cancelled;
    (* Shallow nodes and leaves stay unkeyed: see the key comment. *)
    let entry =
      match st.table with
      | Some table when 2 * max_period < len && len < depth ->
          let cids = take (2 * max_period) rev_cids in
          let key =
            Intern.Ints.intern st.keys
              (Runner.Cursor.compact_key cursor
                 ~extra:
                   ((List.length cids :: cids)
                   @ List.concat_map (fun (z, s) -> [ z; s ]) sleep))
          in
          Some (table, key)
      | _ -> None
    in
    match
      Option.bind entry (fun (table, k) -> Clock_cache.find_opt table k)
    with
    | Some runs ->
        st.hits <- st.hits + 1;
        st.runs <- st.runs + runs;
        Telemetry.emit st.sink Telemetry.Cache_hit len runs
    | None ->
        let runs0 = st.runs in
        let view = Runner.Cursor.view cursor in
        eval_candidates st ~factory ~good ~point ~max_period ~pump_ticks
          ~blocked:(blocked_at view) cursor rev_script rev_cells rev_goods len;
        (match menu view len crashes with
        | [] -> st.runs <- st.runs + 1
        | decisions ->
            (* Sleep-set filter, guarded by the cycle proviso.  A slept
               process's step commutes with everything executed since
               it went to sleep, so granting it here only step-swaps a
               run an earlier sibling explores — {e for safety}.  For
               cycle detection two extra wakes keep the reduction
               sound: a path is never truncated outright (if every
               enabled decision is asleep, all sleepers are
               force-woken), and no process sleeps through more than
               [proviso_bound] consecutive edges ([settle_sleep]), so
               every pruned transition is re-enabled within that many
               ticks on any retained cycle. *)
            let asleep, active =
              if dpor && sleep <> [] then
                List.partition
                  (fun d ->
                    match d with
                    | Driver.Schedule p -> List.mem_assoc p sleep
                    | _ -> false)
                  decisions
              else ([], decisions)
            in
            let asleep, active, sleep =
              if active = [] && asleep <> [] then begin
                st.proviso <- st.proviso + List.length asleep;
                Telemetry.emit st.sink Telemetry.Proviso_wake len
                  (List.length asleep);
                ([], decisions, [])
              end
              else (asleep, active, sleep)
            in
            st.por_pruned <- st.por_pruned + List.length asleep;
            if asleep <> [] then
              Telemetry.emit st.sink Telemetry.Por_sleep len
                (List.length asleep);
            (* Children with their candidate sleep sets: each explored
               sibling falls asleep (streak 0) for the siblings after
               it; crashes wake everyone. *)
            let children =
              if not dpor then List.mapi (fun i d -> (i, d, [])) active
              else
                List.mapi (fun i d -> (i, d)) active
                |> List.fold_left
                     (fun (acc, prev) (i, d) ->
                       let child_sleep =
                         match d with Driver.Crash _ -> [] | _ -> prev
                       in
                       let prev' =
                         match d with
                         | Driver.Schedule p ->
                             (p, 0) :: List.remove_assoc p prev
                         | _ -> prev
                       in
                       ((i, d, child_sleep) :: acc, prev'))
                     ([], sleep)
                |> fst |> List.rev
            in
            let before = History.length view.Driver.history in
            (* As in {!Explore}: read before the first child extends
               [cursor] in place. *)
            let hist_id = Runner.Cursor.hist_id cursor in
            List.iter
              (fun (i, d, child_sleep) ->
                let crashes' =
                  match d with Driver.Crash _ -> crashes + 1 | _ -> crashes
                in
                let descend child =
                  Telemetry.emit st.sink Telemetry.Decision (len + 1)
                    (Explore.dec_code d);
                  Runner.Cursor.apply child d;
                  let settled =
                    if dpor then settle_sleep child d child_sleep (len + 1)
                    else []
                  in
                  let fresh =
                    drop before
                      (History.to_list
                         (Runner.Cursor.view child).Driver.history)
                  in
                  let cell = cell_of d fresh in
                  let rev_cids' =
                    if cache then Intern.intern st.cells_pool cell :: rev_cids
                    else rev_cids
                  in
                  visit child (d :: rev_script) (cell :: rev_cells) rev_cids'
                    (goods_of ~good fresh :: rev_goods)
                    (len + 1) crashes' settled
                in
                if i = 0 then begin
                  st.avoided <- st.avoided + 1;
                  descend cursor
                end
                else
                  with_cursor ~prefix:(List.rev rev_script) ~hist_id
                    (fun c ->
                      st.replayed <- st.replayed + len;
                      descend c))
              children);
        Option.iter
          (fun (table, k) -> Clock_cache.replace table k (st.runs - runs0))
          entry
  in
  let outcome =
    match with_cursor (fun c -> visit c [] [] [] [] 0 0 []) with
    | () -> No_fair_cycle
    | exception Found_lasso -> Lasso (Option.get st.found)
    | exception Cancelled ->
        raise
          (Explore.Interrupted
             (stats_of_state
                ~elapsed_ns:(Clock.now_ns () - t0)
                ~events_dropped:(Obs.events_dropped obs)
                st))
  in
  {
    outcome;
    stats =
      stats_of_state
        ~elapsed_ns:(Clock.now_ns () - t0)
        ~events_dropped:(Obs.events_dropped obs)
        st;
  }

let certify_run ~n ~factory ~driver ~good ~point ~max_steps ?max_period
    ?pump_ticks () =
  let t0 = Clock.now_ns () in
  let max_period = Option.value max_period ~default:(max 1 (max_steps / 4)) in
  let pump_ticks = Option.value pump_ticks ~default:(max 64 (2 * max_period)) in
  let st = new_state () in
  let outcome =
    Runner.Cursor.with_ ~n ~factory:(factory ()) ~ticks:st.ticks (fun cursor ->
        let rec go rev_script rev_cells rev_goods len =
          if len >= max_steps then (rev_script, rev_cells, rev_goods, len)
          else
            let view = Runner.Cursor.view cursor in
            match driver view with
            | Driver.Stop -> (rev_script, rev_cells, rev_goods, len)
            | d ->
                let before = History.length view.Driver.history in
                Runner.Cursor.apply cursor d;
                let fresh =
                  drop before
                    (History.to_list (Runner.Cursor.view cursor).Driver.history)
                in
                go (d :: rev_script)
                  (cell_of d fresh :: rev_cells)
                  (goods_of ~good fresh :: rev_goods)
                  (len + 1)
        in
        let rev_script, rev_cells, rev_goods, len = go [] [] [] 0 in
        st.nodes <- len;
        st.runs <- 1;
        match
          eval_candidates st ~factory ~good ~point ~max_period ~pump_ticks
            ~blocked:Proc.Set.empty cursor rev_script rev_cells rev_goods len
        with
        | () -> No_fair_cycle
        | exception Found_lasso -> Lasso (Option.get st.found))
  in
  {
    outcome;
    stats =
      stats_of_state ~elapsed_ns:(Clock.now_ns () - t0) ~events_dropped:0 st;
  }

let validate_cert_codes ~n ~factory ~invoke ~good ~point ~pump_ticks ~stem
    ~cycle () =
  let p = List.length cycle in
  if p = 0 then None
  else
    let ticks = ref 0 in
    Runner.Cursor.with_ ~n ~factory:(factory ()) ~ticks (fun cursor ->
        let apply_codes codes =
          List.map
            (fun code ->
              let view = Runner.Cursor.view cursor in
              let d = Explore.decision_of_code ~invoke view code in
              let before = History.length view.Driver.history in
              Runner.Cursor.apply cursor d;
              let fresh =
                drop before
                  (History.to_list (Runner.Cursor.view cursor).Driver.history)
              in
              (d, cell_of d fresh))
            codes
        in
        match
          let stem_ds = apply_codes stem in
          let cycle_ds = apply_codes cycle in
          (stem_ds, cycle_ds)
        with
        | exception _ -> None
        | stem_ds, cycle_ds ->
            let view = Runner.Cursor.view cursor in
            let blocked =
              Proc.Set.of_list
                (List.filter
                   (fun q ->
                     view.Driver.status q = Runtime.Idle
                     && Option.is_none (invoke view q))
                   (Proc.all ~n))
            in
            let cert =
              Lasso.cert_of_cursor
                ~stem:(List.map fst stem_ds)
                ~cycle:(List.map fst cycle_ds)
                ~cells:(List.map snd cycle_ds)
                cursor
            in
            let reps = max 2 ((pump_ticks + p - 1) / p) in
            match
              Lasso.pump ~factory:(factory ()) ~ticks ~repetitions:reps cert
            with
            | Error _ -> None
            | Ok rep ->
                if
                  Proc.Set.subset (Fairness.starved rep) blocked
                  && (not (Freedom.holds ~good rep point))
                  && Option.is_some (Lasso.window_period rep)
                then Some cert
                else None)
