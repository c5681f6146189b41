open Slx_history
open Slx_sim
open Slx_liveness
module Telemetry = Slx_obs.Telemetry
module Obs = Slx_obs.Obs

type ('inv, 'res) outcome =
  | Lasso of ('inv, 'res) Lasso.cert
  | No_fair_cycle

type ('inv, 'res) result = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;
}

(* Transposition keys pair the configuration's compact key with the
   last [2 * max_period] abstract trace cells: every candidate cycle
   examined at or below a node is a function of the configuration (the
   key, whose history digest stands for the full history and hence
   all response payloads) and of at most that much trace suffix, so
   two prefixes agreeing on both have identical candidate sets below —
   an entry is
   written only for completed lasso-free subtrees, and stores the
   subtree's run count, credited to [runs] on a hit.  Under DPOR the
   reduced subtree additionally depends on the node's sleep set, so
   the sleep set joins the key; with DPOR off it is always [].

   The key is one flat int array ({!Search.key}): the cursor's
   [compact_key], then the trace
   suffix as cell codes ({!Lasso.cell_code}, which the walk carries),
   length-prefixed so codes and sleeper entries cannot alias, then
   the sleepers' process ids.

   Only nodes with [2 * max_period < len < depth] are keyed.  The key
   carries the time ([len]), and every decision's cell names its
   process and kind ([pK:step], [pK:inv], [pK:crash]), so at
   [len <= 2 * max_period] the cell suffix spells out the node's whole
   script: no other node of the walk has that key, and a lookup could
   only miss.  Leaves ([len = depth]) are not keyed: a hit would save
   one candidate evaluation while every leaf pays for a key.  When no
   node qualifies ([depth <= 2 * max_period + 1], which includes the
   default period bound) the search builds no cache at all — no table
   and no keyed cursor (doc/model.md §7). *)

(* The search state: the suffix cache maps a key to its subtree's run
   count, and the witness is the accepted certificate. *)
type ('inv, 'res) state = ('inv, 'res, int, ('inv, 'res) Lasso.cert) Search.t

(* A search with no cache, reductions or telemetry: the one
   [certify_run] and [validate_cert_codes] replay and pump with. *)
let plain_state ~n ~factory : _ state =
  Search.create ~n ~factory ~cache:false ~dpor:false Obs.disabled

let rec take k xs =
  if k <= 0 then []
  else match xs with [] -> [] | x :: tl -> x :: take (k - 1) tl

let rec drop k xs =
  if k <= 0 then xs else match xs with [] -> [] | _ :: tl -> drop (k - 1) tl

(* Apply [d] to [cursor], whose history has [before] events, and
   return the events it appended with the tick's cell code: the
   {!Lasso.cell_code} of what {!Lasso.tick_cells} reports for that
   tick. *)
let step ~before cursor d =
  Runner.Cursor.apply cursor d;
  let history = (Runner.Cursor.view cursor).Driver.history in
  let fresh = History.latest history (History.length history - before) in
  (fresh, Lasso.cell_code d fresh)

(* The cell code [step] returns for a crash: the tick appends the crash
   alone. *)
let crash_cell = function
  | Driver.Crash q as d -> Lasso.cell_code d [ Event.Crash q ]
  | _ -> invalid_arg "Live_explore.crash_cell: not a crash"

let history_length view = History.length view.Driver.history

let goods_of ~good fresh =
  List.fold_left
    (fun acc e ->
      match Event.response e with
      | Some res when good res -> Proc.Set.add (Event.proc e) acc
      | _ -> acc)
    Proc.Set.empty fresh

(* The processes exempt from fairness at [view]: idle with no further
   work from the workload.  Without a workload (a driver-recorded run)
   none is. *)
let blocked_at ~invoke view =
  match invoke with
  | None -> Proc.Set.empty
  | Some invoke ->
      Proc.Set.of_list
        (List.filter
           (fun p ->
             view.Driver.status p = Runtime.Idle
             && Option.is_none (invoke view p))
           (Proc.all ~n:view.Driver.n))

(* The acceptance test of a candidate certificate, shared by the search
   and the re-validation of stored witnesses: pump the cycle for
   [max 2 (ceil (pump_ticks / period))] repetitions — replaying the
   workload [invoke], when there is one — then require the starved
   processes to be blocked and the freedom point violated.  A pump
   that passes repeats its cells in every repetition, so its window is
   periodic with no test here (doc/model.md §7).  [own], a cursor
   already at stem · cycle that no one uses again, is pumped from where
   it stands, outside the walk's probe; without it the pump
   replays the stem on a fresh instance.  [Error (Some r)] is a pump
   that failed at repetition [r] in a way the cycle's continuations
   inherit ({!Lasso.failure}).  The pump span closes with its verdict
   on every path. *)
let certify (st : _ state) ~invoke ~good ~point ~pump_ticks ~blocked ?own
    cert =
  let p = List.length cert.Lasso.c_cycle in
  let repetitions = max 2 ((pump_ticks + p - 1) / p) in
  Telemetry.emit st.sink Telemetry.Pump_start p 0;
  let pumped =
    match own with
    | Some cursor ->
        Runner.Cursor.detach cursor;
        Lasso.pump_from cursor ~repetitions ?invoke cert
    | None ->
        Lasso.pump ~factory:(st.factory ()) ~ticks:st.ticks ~repetitions
          ?invoke cert
  in
  let verdict =
    match pumped with
    | Error f -> Error f.Lasso.repetition
    | Ok rep ->
        if
          Proc.Set.subset (Fairness.starved rep) blocked
          && not (Freedom.holds ~good rep point)
        then Ok ()
        else Error None
  in
  Telemetry.emit st.sink Telemetry.Pump_verdict p
    (if Result.is_ok verdict then 1 else 0);
  verdict

(* A pump of cycle [cycle] that failed at repetition [r >= 3] on the
   candidate closed at depth [base].  Replay is deterministic, so the
   candidate with the same cycle closed [m] repetitions later, [1 <= m
   <= r - 2], fails at repetition [r - m]: the walk carries the record
   down the edges that continue [cycle], up to depth [until = base +
   (r - 2) * period], and rejects those candidates without pumping
   (doc/model.md §7). *)
type ('inv, 'res) doomed = {
  period : int;
  base : int;
  until : int;
  cycle : ('inv, 'res) Driver.decision array;
}

(* The records whose cycle an edge [d] into depth [len] continues. *)
let continued doomed d len =
  if doomed = [] then []
  else
    List.filter
      (fun r ->
        len <= r.until && r.cycle.((len - r.base - 1) mod r.period) = d)
      doomed

(* Evaluate every candidate cycle anchored at the current node: for
   each period [p <= max_period], the suffix of the last [2p] ticks
   whose per-tick cell codes are [p]-periodic (two full repetitions
   observed).  A candidate is a fair cycle when every correct,
   non-blocked process takes a grant on it; it violates [point] per
   {!Freedom.violated_on_cycle}; and it is accepted only if it passes
   [certify] — unless a [doomed] record already rejects it, which
   still opens and closes its pump span.  Stops the walk
   ({!Search.found}) at the first accepted candidate (shortest period
   first).  With [own], the node's cursor is not used again, so the
   first pump runs on it.  The correct and blocked sets are built only
   once some period closes: most nodes have none.  Returns [doomed]
   plus the records of this node's failed pumps. *)
let eval_candidates (st : _ state) ~invoke ~good ~point ~max_period
    ~pump_ticks ~own cursor rev_script rev_codes rev_goods len doomed =
  let carried = ref doomed in
  if len >= 2 then begin
    (* [rev_codes] has [len >= 2p] codes, newest first. *)
    let periodic p = Lasso.same_prefix p rev_codes (drop p rev_codes) in
    let context =
      lazy
        (let view = Runner.Cursor.view cursor in
         let correct =
           Proc.Set.of_list
             (List.filter
                (fun p -> view.Driver.status p <> Runtime.Crashed)
                (Proc.all ~n:view.Driver.n))
         in
         (correct, blocked_at ~invoke view))
    in
    let own = ref own in
    for p = 1 to min max_period (len / 2) do
      if periodic p then begin
        let correct, blocked = Lazy.force context in
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
          if
            List.exists
              (fun r -> r.period = p && (len - r.base) mod p = 0)
              doomed
          then begin
            Telemetry.emit st.sink Telemetry.Pump_start p 0;
            Telemetry.emit st.sink Telemetry.Pump_verdict p 0
          end
          else begin
            let cert =
              {
                Lasso.c_n = st.n;
                c_stem = List.rev (drop p rev_script);
                c_cycle = List.rev cycle_rev;
              }
            in
            let own_cursor = if !own then Some cursor else None in
            own := false;
            match
              certify st ~invoke ~good ~point ~pump_ticks ~blocked
                ?own:own_cursor cert
            with
            | Ok () -> Search.found st cert
            | Error (Some r) when r >= 3 ->
                carried :=
                  {
                    period = p;
                    base = len;
                    until = len + ((r - 2) * p);
                    cycle = Array.of_list cert.Lasso.c_cycle;
                  }
                  :: !carried
            | Error _ -> ()
          end
        end
      end
    done
  end;
  !carried

let result (st : _ state) found =
  {
    outcome = (match found with Some c -> Lasso c | None -> No_fair_cycle);
    stats = Search.stats st;
  }

(* Default period bound: ceil(depth / 2), the largest period for
   which two full repetitions fit in a depth-bounded suffix at {e
   some} node of the walk (detection at a node of length [len] needs
   [2p <= len]; the deepest nodes have [len = depth]).  A plain
   [depth / 2] floor is equivalent for detection — an odd depth's
   last tick cannot complete a second repetition — but ceil keeps
   the documented bound honest at odd depths and costs nothing. *)
let budgets ~depth ~max_period ~pump_ticks =
  ( Option.value max_period ~default:(max 1 ((depth + 1) / 2)),
    Option.value pump_ticks ~default:(4 * depth) )

let search ~n ~factory ~invoke ~good ~point ~depth ?(max_crashes = 0)
    ?max_period ?pump_ticks ?invoke_order:(_ : bool option) ?(dpor = false)
    ?(cache = true) ?(obs = Obs.disabled) ?(compact = true) ?cancel () =
  if not compact then invalid_arg "Live_explore.search: compact must be true";
  let max_period, pump_ticks = budgets ~depth ~max_period ~pump_ticks in
  (* The cache engages only if some node can be keyed, i.e. some
     [len] has [2 * max_period < len < depth] (see the key comment). *)
  let cache = cache && depth > (2 * max_period) + 1 in
  let st : _ state = Search.create ~n ~factory ~cache ~dpor ?cancel obs in
  (* The canonical menu ({!Search.menu}), so the emitted certificate
     is the lexicographically least in that order, invoke-ordered:
     where several idle processes could be invoked, only the least
     one's invocation is offered (doc/model.md §7 states the lemma
     and the fairness assumption this rests on). *)
  let canonical =
    Search.menu ~invoke ~depth ~max_crashes ~symmetry:false ~invoke_order:true
  in
  let menu ?pre view rev_script len crashes =
    let decisions, pruned =
      match pre with
      | Some m -> m
      | None -> canonical view ~last:(List.nth_opt rev_script 0) len crashes
    in
    if pruned > 0 then begin
      st.invoke_pruned <- st.invoke_pruned + pruned;
      Telemetry.emit st.sink Telemetry.Invoke_prune len pruned
    end;
    decisions
  in
  (* Settle a child's candidate sleep set once its edge [d] has
     executed (DPOR only).  {!Search.settle} wakes the sleepers whose
     pending steps race with the accesses [d] performed; of the rest,
     the parent's own sleepers [sleep] are dropped too (counted as
     [proviso_wakes]), so only [d]'s earlier siblings stay asleep.  A
     child at the depth bound is a leaf, with no menu to prune, so
     none is settled there. *)
  let settles len = dpor && len < depth in
  let drop_own settled ~sleep len =
    let dropped, kept =
      List.partition (fun (z, _) -> List.mem_assoc z sleep) settled
    in
    if dropped <> [] then begin
      st.proviso <- st.proviso + List.length dropped;
      Telemetry.emit st.sink Telemetry.Proviso_wake len (List.length dropped)
    end;
    kept
  in
  let settle d candidate ~sleep len =
    drop_own (Search.settle st d candidate len) ~sleep len
  in
  (* Shallow nodes and leaves stay unkeyed: see the key comment. *)
  let keyed_at len =
    Option.is_some st.table && 2 * max_period < len && len < depth
  in
  let key_tail rev_codes sleep =
    let codes = take (2 * max_period) rev_codes in
    (List.length codes :: codes) @ Search.sleep_ids sleep
  in
  (* The children of a node at depth [len]: a step or invocation leaf
     that {!Lasso.may_close} says closes no candidate is decided here
     ({!Search.Step_leaf}), since a leaf's only work is its candidates. *)
  let decide_leaves len rev_codes kids =
    if len + 1 < depth then kids
    else
      List.map
        (function
          | d, Search.Descend None
            when not (Lasso.may_close ~max_period d rev_codes) ->
              (d, Search.Step_leaf)
          | kid -> kid)
        kids
  in
  (* [sleep] holds the processes whose steps sleep at this node, each
     with the footprint its step observed; [] with DPOR off.  An open crash child arrives with [pre],
     the menu its parent took on its crash view, which is this
     node's.  [doomed] holds the pump failures whose cycle the path to
     this node continues. *)
  let rec visit ?pre cursor rev_script rev_codes rev_goods len crashes sleep
      doomed =
    Search.node st len @@ fun () ->
    let key =
      if keyed_at len then Some (Search.key cursor (key_tail rev_codes sleep))
      else None
    in
    match Search.find st key with
    | Some runs -> Search.hit st len runs
    | None ->
        let runs0 = st.runs in
        (* Read before a leaf's pump moves the cursor. *)
        let view = Runner.Cursor.view cursor in
        let doomed =
          eval_candidates st ~invoke:(Some invoke) ~good ~point ~max_period
            ~pump_ticks ~own:(len = depth) cursor rev_script rev_codes
            rev_goods len doomed
        in
        (match menu ?pre view rev_script len crashes with
        | [] -> st.runs <- st.runs + 1
        | decisions ->
            (* One-level sleep-set filter.  A process asleep here took
               its step as an earlier sibling of the edge into this
               node, and that step commutes with the edge's observed
               step, so granting it here only step-swaps a run the
               sibling explores.  It sleeps at this node only: every
               child drops it ([settle]).  A path is never truncated
               outright: if every enabled decision is asleep, all
               sleepers are force-woken (doc/model.md §7). *)
            let asleep, active = Search.asleep sleep decisions in
            let asleep, active, sleep =
              if active = [] && asleep <> [] then begin
                st.proviso <- st.proviso + List.length asleep;
                Telemetry.emit st.sink Telemetry.Proviso_wake len
                  (List.length asleep);
                ([], decisions, [])
              end
              else (asleep, active, sleep)
            in
            st.sleeps <- st.sleeps + List.length asleep;
            if asleep <> [] then
              Telemetry.emit st.sink Telemetry.Por_sleep len
                (List.length asleep);
            (* A crash child whose menu is empty is decided here as a
               leaf; with no sleepers passed, none is dead. *)
            let kids, _ =
              Search.classify ~menu:canonical cursor ~sleep:[] len crashes
                active
            in
            let kids = decide_leaves len rev_codes kids in
            (* Every child starts from this node's history. *)
            let before = history_length view in
            Search.children st cursor ~rev_script ~len ~sleep
              ~apply:(step ~before)
              ~leaf:(fun x d child_sleep ->
                match x with
                | None ->
                    (* A decided step leaf: one node, one run. *)
                    Search.node st (len + 1) (fun () ->
                        st.runs <- st.runs + 1)
                | Some x ->
                    let settled =
                      if settles (len + 1) then
                        drop_own child_sleep ~sleep (len + 1)
                      else []
                    in
                    leaf x (crash_cell d :: rev_codes) (len + 1) settled)
              kids
              (fun child d child_sleep pre (fresh, code) ->
                let settled =
                  if settles (len + 1) then
                    settle d child_sleep ~sleep (len + 1)
                  else []
                in
                visit ?pre child (d :: rev_script) (code :: rev_codes)
                  (goods_of ~good fresh :: rev_goods)
                  (len + 1)
                  (Search.crashes_after crashes d)
                  settled
                  (continued doomed d (len + 1))));
        Search.remember st key (st.runs - runs0)
  (* A crash leaf, as [visit] would walk its cursor: a lookup, then one
     maximal run.  Its candidates are none: a period [p] closing here
     would need the cell [p] ticks back to equal this tick's
     [q:crash] cell, and [q] crashes once (doc/model.md §7).  A crash
     wakes no sleeper, so [settled] is what {!Search.settle} returns. *)
  and leaf x rev_codes len sleep =
    Search.node st len @@ fun () ->
    let key =
      if keyed_at len then
        Some (Runner.Cursor.crash_key x ~extra:(key_tail rev_codes sleep))
      else None
    in
    match Search.find st key with
    | Some runs -> Search.hit st len runs
    | None ->
        st.runs <- st.runs + 1;
        Search.remember st key 1
  in
  result st
    (Search.run st (fun () ->
         Search.with_cursor st (fun c -> visit c [] [] [] 0 0 [] [])))

let certify_run ~n ~factory ~driver ~good ~point ~max_steps ?max_period
    ?pump_ticks () =
  let max_period = Option.value max_period ~default:(max 1 (max_steps / 4)) in
  let pump_ticks = Option.value pump_ticks ~default:(max 64 (2 * max_period)) in
  let st = plain_state ~n ~factory in
  result st
    (Search.run st (fun () ->
         Search.with_cursor st (fun cursor ->
             let rec go rev_script rev_codes rev_goods len =
               if len >= max_steps then (rev_script, rev_codes, rev_goods, len)
               else
                 let view = Runner.Cursor.view cursor in
                 match driver view with
                 | Driver.Stop -> (rev_script, rev_codes, rev_goods, len)
                 | d ->
                     let fresh, code =
                       step ~before:(history_length view) cursor d
                     in
                     go (d :: rev_script) (code :: rev_codes)
                       (goods_of ~good fresh :: rev_goods)
                       (len + 1)
             in
             let rev_script, rev_codes, rev_goods, len = go [] [] [] 0 in
             st.nodes <- len;
             st.runs <- 1;
             (* A driver is no workload: the pump replays the recorded
                payloads, and no process counts as blocked.  The run
                ends here, so the first pump runs on its cursor. *)
             ignore
               (eval_candidates st ~invoke:None ~good ~point ~max_period
                  ~pump_ticks ~own:true cursor rev_script rev_codes rev_goods
                  len []))))

let validate_cert_codes ~n ~factory ~invoke ~good ~point ~pump_ticks ~stem
    ~cycle () =
  if cycle = [] then None
  else
    let st = plain_state ~n ~factory in
    Search.with_cursor st (fun cursor ->
        let apply_codes = Explore.apply_codes ~invoke cursor in
        match
          let c_stem = apply_codes stem in
          (c_stem, apply_codes cycle)
        with
        | exception _ -> None
        | c_stem, c_cycle ->
            let cert = { Lasso.c_n = n; c_stem; c_cycle } in
            let invoke = Some invoke in
            let blocked = blocked_at ~invoke (Runner.Cursor.view cursor) in
            (* The cursor stands at stem · cycle: the pump goes on from
               there. *)
            match
              certify st ~invoke ~good ~point ~pump_ticks ~blocked
                ~own:cursor cert
            with
            | Ok () -> Some cert
            | Error _ -> None)
