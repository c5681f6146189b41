open Slx_history
open Slx_sim
module Telemetry = Slx_obs.Telemetry
module Progress = Slx_obs.Progress
module Obs = Slx_obs.Obs
module Clock = Slx_obs.Clock

type ('inv, 'res) outcome =
  | Ok of int
  | Counterexample of ('inv, 'res) Run_report.t

type ('inv, 'res) exploration = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;
  witness_script : ('inv, 'res) Driver.decision list option;
}

exception Found_counterexample
exception Interrupted of Explore_stats.t

(* Internal: a [?cancel] poll came back true mid-walk; converted to
   [Interrupted] (with the partial stats attached) at the top level. *)
exception Cancelled

(* ------------------------------------------------------------------ *)
(* Type-agnostic decision coding.                                      *)

(* A decision as a small int — the persistent form stored witness
   scripts use.  [Invoke] payloads are deliberately not
   encoded: every engine constructs an invocation as [invoke view p],
   so a decoder holding the same [invoke] re-derives the identical
   payload from the view at the point of application.  [Stop] never
   appears in a menu. *)
let code_of_decision = function
  | Driver.Schedule p -> p lsl 2
  | Driver.Invoke (p, _) -> (p lsl 2) lor 1
  | Driver.Crash p -> (p lsl 2) lor 2
  | Driver.Stop -> invalid_arg "Explore.code_of_decision: Stop"

let codes_of_script ds = List.map code_of_decision ds

let decision_of_code ~invoke view code =
  let p = code lsr 2 in
  match code land 3 with
  | 0 -> Driver.Schedule p
  | 2 -> Driver.Crash p
  | 1 -> (
      match invoke view p with
      | Some inv -> Driver.Invoke (p, inv)
      | None ->
          invalid_arg "Explore.decision_of_code: no pending invocation")
  | _ -> invalid_arg "Explore.decision_of_code: bad tag"

(* Decode-and-apply a coded script against a live cursor, returning
   the typed decisions actually applied (root-first). *)
let apply_codes ~invoke cursor codes =
  List.map
    (fun code ->
      let d = decision_of_code ~invoke (Runner.Cursor.view cursor) code in
      Runner.Cursor.apply cursor d;
      d)
    codes

let run_of_codes ~n ~factory ~invoke codes =
  Runner.Cursor.with_ ~n ~factory:(factory ()) (fun cursor ->
      let ds = apply_codes ~invoke cursor codes in
      let len = List.length ds in
      (ds, Runner.Cursor.report cursor ~window:(max len 1) ()))

let workload_invoke workload view p =
  let issued =
    History.length
      (History.filter
         (fun e -> Event.is_invocation e && Proc.equal (Event.proc e) p)
         view.Driver.history)
  in
  workload p issued

(* The packed int the [Decision] telemetry event carries. *)
let dec_code = function
  | Driver.Schedule p -> Telemetry.Dec.schedule (Proc.hash p)
  | Driver.Invoke (p, _) -> Telemetry.Dec.invoke (Proc.hash p)
  | Driver.Crash p -> Telemetry.Dec.crash (Proc.hash p)
  | Driver.Stop -> Telemetry.Dec.schedule 0  (* never in a menu *)

(* ------------------------------------------------------------------ *)
(* The decision menu.                                                  *)

(* The decision menu of a configuration, in the canonical order that
   defines "lexicographically least script": for each process 1..n, its
   step or invocation; then, if the crash budget allows, for each
   process 1..n, its crash.

   Under [~symmetry], untouched processes (no event in the history:
   never invoked, never crashed — hence idle with zero steps and
   initial local state) are interchangeable up to renaming, so only the
   least untouched process is offered an invocation (resp. a crash);
   the pruned decisions' subtrees are renamings of the representative's.
   The second component counts the decisions pruned this way. *)
let decision_menu ~n ~invoke ~depth ~max_crashes ~symmetry view len crashes =
  if len >= depth then ([], 0)
  else begin
    let pruned = ref 0 in
    let untouched p =
      History.length
        (History.filter
           (fun e -> Proc.equal (Event.proc e) p)
           view.Driver.history)
      = 0
    in
    let rep_invoke =
      if not symmetry then None
      else
        List.find_opt
          (fun p ->
            view.Driver.status p = Runtime.Idle
            && untouched p
            && invoke view p <> None)
          (Proc.all ~n)
    in
    let rep_crash =
      if not symmetry then None else List.find_opt untouched (Proc.all ~n)
    in
    let steps =
      List.concat_map
        (fun p ->
          match view.Driver.status p with
          | Runtime.Ready -> [ Driver.Schedule p ]
          | Runtime.Idle -> begin
              match invoke view p with
              | Some inv ->
                  if symmetry && untouched p && rep_invoke <> Some p then begin
                    incr pruned;
                    []
                  end
                  else [ Driver.Invoke (p, inv) ]
              | None -> []
            end
          | Runtime.Crashed -> [])
        (Proc.all ~n)
    in
    let crash_branches =
      if crashes < max_crashes then
        List.filter_map
          (fun p ->
            if view.Driver.status p = Runtime.Crashed then None
            else if symmetry && untouched p && rep_crash <> Some p then begin
              incr pruned;
              None
            end
            else Some (Driver.Crash p))
          (Proc.all ~n)
      else []
    in
    (steps @ crash_branches, !pruned)
  end

(* ------------------------------------------------------------------ *)
(* Per-domain state.                                                   *)

(* Transposition keys pair the configuration fingerprint with the POR
   sleep set: the same configuration reached with different sleep sets
   explores different reduced subtrees, so they must not share an
   entry.  With POR off the sleep set is always [] and keys degenerate
   to plain fingerprints.

   Two representations, verdict-identical (the differential suite in
   test/test_compact.ml checks runs, digests and witnesses agree):

   - [K_struct]: the structural form — deep fingerprint record plus
     sleep list, hashed and compared structurally on every lookup.
   - [K_compact]: the hash-consed form (the default) — the cursor's
     [compact_key] int array (incrementally interned history id,
     digests, packed per-process state) with the sleep set appended as
     a bitset, interned into a dense id ({!Intern.Ints}), so cache
     lookups hash one immediate int instead of a deep term.  Equality
     of compact keys coincides with equality of structural keys up to
     the digest collisions the structural form already accepts
     (interning is injective; QCheck-tested). *)
type ('inv, 'res) key =
  | K_struct of {
      k_fp : ('inv, 'res) Runner.fingerprint;
      k_sleep : Proc.t list;
    }
  | K_compact of int

(* Sleep sets as bitsets for the compact key: sound only when every
   process id fits a word, which the engine checks before electing
   compact mode ([n < 62]). *)
let sleep_bits sleep = List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 sleep

(* A counterexample as first found: decision-tree rank (root-first
   child indices in the reduced menus — the tie-breaker that makes the
   parallel engine deterministic), decision script, failing report. *)
type ('inv, 'res) witness =
  int list * ('inv, 'res) Driver.decision list * ('inv, 'res) Run_report.t

(* Per-engine (and, under fan-out, per-domain) mutable exploration
   state.  Domains share nothing mutable except the work queue and the
   witness slot: each has its own cursors, transposition table,
   telemetry ring and counters, which keeps the engine deterministic
   and lock-free.  [index] is the spawn index (0 = the calling
   domain); it keys the per-domain stats rows and the trace lanes.
   [sample] is installed once all sibling states exist — only the
   index-0 state ticks the progress reporter, reading sibling counters
   racily (they are immediates, so a stale read is the worst case). *)
type ('inv, 'res) dstate = {
  index : int;
  sink : Telemetry.sink;
  progress : Progress.t;
  mutable sample : unit -> Progress.sample;
  mutable nodes : int;
  mutable runs : int;
  mutable checked : int;
  mutable replayed : int;
  mutable avoided : int;
  mutable hits : int;
  mutable sleeps : int;
  mutable reversals : int;
  mutable sym_pruned : int;
  mutable steals : int;
  mutable digest : int;
  mutable found : ('inv, 'res) witness option;
  ticks : int ref;
  table : (('inv, 'res) key, entry) Clock_cache.t;
  shadow : Runtime.shadow option;
      (* Sanitizer shadow shared by all this domain's cursors:
         non-raising, non-recording — it only counts violations, so a
         sanitized exploration takes exactly the decisions an
         unsanitized one does. *)
  probe : Runtime.probe option;
      (* DPOR observed-access probe, likewise shared by the domain's
         cursors: records what each executed step physically touched,
         from which the dynamic sleep-set filter computes race
         reversals.  Recording only — decisions are unchanged. *)
  encode : (int -> ('inv, 'res) Event.t -> int) option;
      (* Compact-key mode: the hash-consing hook every cursor of this
         domain is created with.  It interns each appended event, then
         the (previous history id, event id) pair, so the cursor's
         [hist_id] stands in for its whole history — per-domain pools,
         like the cache, so domains stay share-nothing. *)
  keys : Intern.Ints.t;
      (* Compact-key pool: interns the flat [compact_key] arrays into
         the dense ids the transposition cache is keyed on. *)
  bitstate : Bitstate.t option;
      (* Hash-compaction mode: replaces the exact transposition cache
         with a 2^bits-bit table of fingerprint hashes.  One-sided —
         a hit may be a collision, so the mode trades exhaustiveness
         for bounded memory and reports its own collision bound. *)
}

and entry = { e_runs : int; e_digest : int }

let zero_sample =
  {
    Progress.s_nodes = 0;
    s_runs = 0;
    s_steps = 0;
    s_frontier = 0;
    s_cache_entries = 0;
    s_cache_capacity = 0;
    s_cycles = 0;
    s_domain_steps = [];
  }

let new_state ~index ?capacity ~sink ?(progress = Progress.off)
    ?(sanitize = false) ?(dpor = false) ?(compact = false) ?bitstate () =
  let encode =
    if not compact then None
    else begin
      let events = Intern.create () in
      let conses = Intern.create () in
      Some
        (fun parent e ->
          Intern.intern conses (parent, Intern.intern events e))
    end
  in
  {
    index;
    sink;
    progress;
    sample = (fun () -> zero_sample);
    nodes = 0;
    runs = 0;
    checked = 0;
    replayed = 0;
    avoided = 0;
    hits = 0;
    sleeps = 0;
    reversals = 0;
    sym_pruned = 0;
    steals = 0;
    digest = 0;
    found = None;
    ticks = ref 0;
    table = Clock_cache.create ?capacity ~sink ();
    shadow =
      (if sanitize then
         Some (Runtime.make_shadow ~record:false ~raise_on_violation:false ())
       else None);
    probe = (if dpor then Some (Runtime.make_probe ()) else None);
    encode;
    keys = Intern.Ints.create ();
    bitstate = Option.map (fun bits -> Bitstate.create ~bits) bitstate;
  }

let stats_of_states ~domains_used ~elapsed_ns ~events_dropped states :
    Explore_stats.t =
  let per_domain f =
    if domains_used > 1 then List.map (fun st -> (st.index, f st)) states
    else []
  in
  List.fold_left
    (fun (acc : Explore_stats.t) st ->
      {
        acc with
        Explore_stats.nodes = acc.Explore_stats.nodes + st.nodes;
        runs = acc.runs + st.runs;
        runs_checked = acc.runs_checked + st.checked;
        steps_executed = acc.steps_executed + !(st.ticks);
        steps_replayed = acc.steps_replayed + st.replayed;
        replays_avoided = acc.replays_avoided + st.avoided;
        cache_hits = acc.cache_hits + st.hits;
        cache_entries = acc.cache_entries + Clock_cache.length st.table;
        cache_evictions = acc.cache_evictions + Clock_cache.evictions st.table;
        por_prunes = acc.por_prunes + st.sleeps;
        race_reversals = acc.race_reversals + st.reversals;
        symmetry_pruned = acc.symmetry_pruned + st.sym_pruned;
        steals = acc.steals + st.steals;
        footprint_violations =
          (acc.Explore_stats.footprint_violations
          +
          match st.shadow with
          | Some sh -> Runtime.shadow_violation_count sh
          | None -> 0);
        bitstate_bits =
          (match st.bitstate with
          | Some bs -> max acc.Explore_stats.bitstate_bits (Bitstate.bits bs)
          | None -> acc.Explore_stats.bitstate_bits);
        bitstate_adds =
          (acc.Explore_stats.bitstate_adds
          + match st.bitstate with Some bs -> Bitstate.adds bs | None -> 0);
        bitstate_hits =
          (acc.Explore_stats.bitstate_hits
          + match st.bitstate with Some bs -> Bitstate.hits bs | None -> 0);
        bitstate_marks =
          (acc.Explore_stats.bitstate_marks
          + match st.bitstate with Some bs -> Bitstate.marks bs | None -> 0);
        history_digest = acc.history_digest + st.digest;
      })
    {
      Explore_stats.zero with
      domains_used;
      elapsed_ns;
      events_dropped;
      per_domain_runs = per_domain (fun st -> st.runs);
      per_domain_steps = per_domain (fun st -> !(st.ticks));
    }
    states

(* Install the progress sample on the index-0 state: totals over all
   sibling states (racy reads of immediates), the frontier count, and
   the per-domain step split. *)
let wire_progress obs states frontier =
  let progress = Obs.progress obs in
  if Progress.enabled progress then begin
    let cap_total =
      Array.fold_left
        (fun acc st ->
          match Clock_cache.capacity st.table with
          | None -> acc
          | Some c -> acc + c)
        0 states
    in
    let sample () =
      let nodes = ref 0
      and runs = ref 0
      and steps = ref 0
      and entries = ref 0 in
      Array.iter
        (fun st ->
          nodes := !nodes + st.nodes;
          runs := !runs + st.runs;
          steps := !steps + !(st.ticks);
          entries := !entries + Clock_cache.length st.table)
        states;
      {
        Progress.s_nodes = !nodes;
        s_runs = !runs;
        s_steps = !steps;
        s_frontier = frontier ();
        s_cache_entries = !entries;
        s_cache_capacity = cap_total;
        s_cycles = 0;
        s_domain_steps =
          (if Array.length states > 1 then
             Array.to_list (Array.map (fun st -> !(st.ticks)) states)
           else []);
      }
    in
    states.(0).sample <- sample
  end

(* ------------------------------------------------------------------ *)
(* Work-stealing fan-out.                                              *)

(* A frontier item: a configuration (as the decision prefix that
   reaches it — cursors hold one-shot continuations and cannot
   migrate, so thieves replay) plus the POR sleep set and the tree
   rank it carries.  [it_id] is the publication serial (the flow id of
   the trace's steal arrows); [it_owner] the publisher's spawn
   index. *)
type ('inv, 'res) item = {
  it_id : int;
  it_owner : int;
  it_script : ('inv, 'res) Driver.decision list;  (* reversed *)
  it_len : int;
  it_crashes : int;
  it_sleep : Proc.t list;
  it_rank : int list;  (* root-first *)
}

(* Shared state of a fan-out: a lock-free Treiber stack of frontier
   items (LIFO keeps thieves near the leaves their victim just left,
   so stolen replays are short), the count of queued-or-running items
   for termination detection, the publication serial counter, and the
   least-rank witness slot. *)
type ('inv, 'res) shared = {
  queue : ('inv, 'res) item list Atomic.t;
  outstanding : int Atomic.t;
  spawn_bound : int;
  next_item : int Atomic.t;
  best : ('inv, 'res) witness option Atomic.t;
}

let push shared it =
  Atomic.incr shared.outstanding;
  let rec go () =
    let cur = Atomic.get shared.queue in
    if not (Atomic.compare_and_set shared.queue cur (it :: cur)) then go ()
  in
  go ()

let pop shared =
  let rec go () =
    match Atomic.get shared.queue with
    | [] -> None
    | (it :: rest) as cur ->
        if Atomic.compare_and_set shared.queue cur rest then Some it else go ()
  in
  go ()

(* Ranks are compared lexicographically; [compare] on int lists is
   exactly that (a proper prefix is smaller). *)
let record_witness shared ((rank, _, _) as w) =
  let rec go () =
    let cur = Atomic.get shared.best in
    match cur with
    | Some (r, _, _) when compare r rank <= 0 -> ()
    | _ -> if not (Atomic.compare_and_set shared.best cur (Some w)) then go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The incremental reduced engine.                                     *)

let explore ~n ~factory ~invoke ~depth ?(max_crashes = 0) ?(cache = true)
    ?cache_capacity ?(por = false) ?(dpor = false) ?(symmetry = false)
    ?(domains = 1) ?(obs = Obs.disabled) ?(sanitize = false) ?(compact = true)
    ?bitstate ?cancel ~check () =
  let t0 = Clock.now_ns () in
  let cancel = match cancel with Some f -> f | None -> fun () -> false in
  (* [reduce]: the sleep-set walk runs; [dpor] selects the dynamic
     observed-access oracle over the declared-footprint one. *)
  let reduce = por || dpor in
  (* Compact keys only matter when the exact cache is live: bitstate
     mode hashes the structural fingerprint directly (interning every
     visited configuration would defeat its bounded-memory point), and
     the sleep bitset needs every process id to fit a word. *)
  let compact = compact && cache && bitstate = None && n < 62 in
  let menu = decision_menu ~n ~invoke ~depth ~max_crashes ~symmetry in
  (* Every cursor of the walk lives in one of these brackets: a
     sibling's cursor is disposed of as soon as its subtree is done
     (or unwinds), so at most [depth + 1] are live per domain. *)
  let with_cursor st ?prefix ?hist_id f =
    Runner.Cursor.with_ ~n ~factory:(factory ()) ~ticks:st.ticks
      ?shadow:st.shadow ?probe:st.probe ?encode:st.encode ?prefix ?hist_id f
  in
  (* Under DPOR, a child's sleep set is only a {e candidate} until its
     edge executes: the dynamic filter then wakes the sleepers whose
     pending actions raced with the step's observed accesses.  Returns
     the settled sleep set. *)
  let settle_sleep st cursor d candidate len =
    if not dpor then candidate
    else begin
      let observed = Dpor.observed_step_mask ~probe:st.probe ~declared:None in
      let keep, woken =
        Dpor.advance_mask ~observed
          ~pending:(fun z -> Runner.Cursor.pending_mask cursor z)
          candidate d
      in
      (match woken with
      | [] -> ()
      | _ -> (
          match d with
          | Driver.Schedule _ ->
              st.reversals <- st.reversals + List.length woken;
              Telemetry.emit st.sink Telemetry.Race_reversal len
                (List.length woken)
          | _ -> ()));
      keep
    end
  in
  (* Walk the subtree rooted at the configuration [cursor] sits on.
     The first child extends the cursor in place (the incremental step
     the naive engine lacks); each later sibling re-establishes the
     configuration by replaying the decision prefix into a fresh
     cursor, bracketed to its subtree — unless the subtree is farmed
     out to the shared queue for another domain to steal.  Returns
     [true] iff the subtree was fully explored locally (so its
     transposition entry is exact and may be written).  Raises
     [Found_counterexample] with [st.found] set on the first failing
     maximal run, which under this in-order walk is the rank-least one
     of the subtree.

     [visit] wraps [visit_body] in the telemetry node span; the span
     closes on every exit, [Found_counterexample] unwinds included, so
     traces stay balanced.  With the sink disabled the wrapper costs
     two branches and no [Fun.protect] frame. *)
  let rec visit sh st cursor rev_script rev_rank len crashes sleep =
    st.nodes <- st.nodes + 1;
    Progress.tick st.progress st.sample;
    if Telemetry.enabled st.sink then begin
      Telemetry.emit st.sink Telemetry.Node_enter len 0;
      Fun.protect
        ~finally:(fun () ->
          Telemetry.emit st.sink Telemetry.Node_leave len 0)
        (fun () ->
          visit_body sh st cursor rev_script rev_rank len crashes sleep)
    end
    else visit_body sh st cursor rev_script rev_rank len crashes sleep
  and visit_body sh st cursor rev_script rev_rank len crashes sleep =
    if cancel () then raise Cancelled;
    match st.bitstate with
    | Some bs
      when Bitstate.test_and_set bs
             (Runtime.hash_value
                (K_struct
                   { k_fp = Runner.Cursor.fingerprint cursor; k_sleep = sleep }))
      ->
        (* Bitstate hit: the configuration's compacted hash was seen
           before — prune without crediting anything (the table stores
           no subtree data, and the hit may be a collision; the stats
           carry the Bloom bound that quantifies how often). *)
        st.hits <- st.hits + 1;
        Telemetry.emit st.sink Telemetry.Cache_hit len 0;
        true
    | _ ->
    let key =
      if not cache || st.bitstate <> None then None
      else if compact then
        Some
          (K_compact
             (Intern.Ints.intern st.keys
                (Runner.Cursor.compact_key cursor ~extra:[ sleep_bits sleep ])))
      else
        Some (K_struct { k_fp = Runner.Cursor.fingerprint cursor; k_sleep = sleep })
    in
    match Option.bind key (Clock_cache.find_opt st.table) with
    | Some e ->
        (* Transposition: an already-explored configuration (with the
           same sleep set).  Its subtree was counterexample-free
           (failing subtrees abort the walk before an entry is
           written), so credit its runs and final-history digest
           without descending. *)
        st.hits <- st.hits + 1;
        st.runs <- st.runs + e.e_runs;
        st.digest <- st.digest + e.e_digest;
        Telemetry.emit st.sink Telemetry.Cache_hit len e.e_runs;
        true
    | None -> begin
        let decisions, sym_pruned =
          menu (Runner.Cursor.view cursor) len crashes
        in
        st.sym_pruned <- st.sym_pruned + sym_pruned;
        if sym_pruned > 0 then
          Telemetry.emit st.sink Telemetry.Symmetry_prune len sym_pruned;
        match decisions with
        | [] ->
            (* A maximal run: check it. *)
            let r = Runner.Cursor.report cursor ~window:(max len 1) () in
            st.runs <- st.runs + 1;
            st.checked <- st.checked + 1;
            Telemetry.emit st.sink Telemetry.Run_checked len 0;
            let dh = Runtime.hash_value r.Run_report.history in
            st.digest <- st.digest + dh;
            Option.iter
              (fun k ->
                Clock_cache.replace st.table k { e_runs = 1; e_digest = dh })
              key;
            if not (check r) then begin
              st.found <- Some (List.rev rev_rank, List.rev rev_script, r);
              raise Found_counterexample
            end;
            true
        | _ -> begin
            (* Sleep-set filter: a slept process's pending step
               commutes with every step taken since it went to sleep,
               so granting it here would reproduce, step-swapped, a run
               already explored from an earlier sibling. *)
            let asleep, active =
              if reduce && sleep <> [] then
                List.partition
                  (fun d ->
                    match d with
                    | Driver.Schedule p -> List.mem p sleep
                    | _ -> false)
                  decisions
              else ([], decisions)
            in
            st.sleeps <- st.sleeps + List.length asleep;
            if asleep <> [] then
              Telemetry.emit st.sink Telemetry.Por_sleep len
                (List.length asleep);
            match active with
            | [] ->
                (* Everything enabled is asleep: every extension is a
                   reordering of an explored run.  Not a maximal run —
                   nothing to check, nothing to credit. *)
                Option.iter
                  (fun k ->
                    Clock_cache.replace st.table k
                      { e_runs = 0; e_digest = 0 })
                  key;
                true
            | _ ->
                let runs0 = st.runs and digest0 = st.digest in
                let pend p = Runner.Cursor.pending_mask cursor p in
                let commutes z d =
                  match d with
                  | Driver.Schedule q when not (Proc.equal q z) -> begin
                      (* Precomputed conflict masks: the commutation
                         check is two word ANDs ([masks_commute]),
                         verdict-identical to [footprints_commute] on
                         the declared footprints. *)
                      match (pend z, pend q) with
                      | Some a, Some b -> Runtime.masks_commute a b
                      | _ -> false
                    end
                  | Driver.Invoke (q, _) when not (Proc.equal q z) ->
                      (* Invoking [q] touches only [q]-local state (and
                         appends [q]'s invocation event), so it commutes
                         with any pending step of [z] — whatever objects
                         that step accesses.  Requires [invoke] to derive
                         its invocation from [q]'s own projection of the
                         history, which every counting workload does. *)
                      true
                  | _ -> false
                in
                (* Children, each with its sleep set: a process stays
                   (or, as an explored earlier sibling, falls) asleep
                   across child [d] iff its pending step commutes with
                   [d].  Declared POR decides commutation here, from
                   static footprints; DPOR instead carries the whole
                   set as a candidate and lets [settle_sleep] wake
                   racers from the accesses [d] actually performed
                   (crashes conservatively wake everyone — a crash
                   perturbs every process's view of the crashed one). *)
                let children =
                  if not reduce then
                    List.mapi (fun i d -> (i, d, [])) active
                  else
                    List.mapi (fun i d -> (i, d)) active
                    |> List.fold_left
                         (fun (acc, prev) (i, d) ->
                           let child_sleep =
                             if dpor then
                               match d with
                               | Driver.Crash _ -> []
                               | _ -> prev
                             else List.filter (fun z -> commutes z d) prev
                           in
                           let prev' =
                             match d with
                             | Driver.Schedule p ->
                                 List.sort_uniq Proc.compare (p :: prev)
                             | _ -> prev
                           in
                           ((i, d, child_sleep) :: acc, prev'))
                         ([], sleep)
                    |> fst |> List.rev
                in
                let farm_out =
                  match sh with
                  | Some sh ->
                      List.length children > 1
                      && Atomic.get sh.outstanding < sh.spawn_bound
                  | None -> false
                in
                let complete = ref (not farm_out) in
                (* Read before the first child extends [cursor] in
                   place: every later sibling replays this node's
                   prefix, whose history id this is. *)
                let hist_id = Runner.Cursor.hist_id cursor in
                List.iter
                  (fun (i, d, child_sleep) ->
                    let crashes' =
                      match d with
                      | Driver.Crash _ -> crashes + 1
                      | _ -> crashes
                    in
                    if farm_out && i > 0 then begin
                      (* Publish the sibling as a stealable frontier
                         item; whoever pops it replays the prefix. *)
                      let sh = Option.get sh in
                      let id = Atomic.fetch_and_add sh.next_item 1 in
                      Telemetry.emit st.sink Telemetry.Frontier_push id
                        (len + 1);
                      push sh
                        {
                          it_id = id;
                          it_owner = st.index;
                          it_script = d :: rev_script;
                          it_len = len + 1;
                          it_crashes = crashes';
                          it_sleep = child_sleep;
                          it_rank = List.rev (i :: rev_rank);
                        }
                    end
                    else begin
                      let descend child =
                        Telemetry.emit st.sink Telemetry.Decision (len + 1)
                          (dec_code d);
                        Runner.Cursor.apply child d;
                        let settled =
                          settle_sleep st child d child_sleep (len + 1)
                        in
                        visit sh st child (d :: rev_script) (i :: rev_rank)
                          (len + 1) crashes' settled
                      in
                      let explored =
                        if i = 0 then begin
                          st.avoided <- st.avoided + 1;
                          descend cursor
                        end
                        else
                          with_cursor st ~prefix:(List.rev rev_script)
                            ~hist_id (fun c ->
                              st.replayed <- st.replayed + len;
                              descend c)
                      in
                      if not explored then complete := false
                    end)
                  children;
                if !complete then
                  Option.iter
                    (fun k ->
                      Clock_cache.replace st.table k
                        {
                          e_runs = st.runs - runs0;
                          e_digest = st.digest - digest0;
                        })
                    key;
                !complete
          end
      end
  in
  let finish ~domains_used states witness =
    let stats =
      stats_of_states ~domains_used
        ~elapsed_ns:(Clock.now_ns () - t0)
        ~events_dropped:(Obs.events_dropped obs)
        states
    in
    match witness with
    | None ->
        { outcome = Ok stats.Explore_stats.runs; stats; witness_script = None }
    | Some (_, script, r) ->
        { outcome = Counterexample r; stats; witness_script = Some script }
  in
  if domains <= 1 then begin
    (* Sequential: one in-order walk from the root configuration. *)
    let st =
      new_state ~index:0 ?capacity:cache_capacity
        ~sink:(Obs.sink obs ~index:0) ~progress:(Obs.progress obs) ~sanitize
        ~dpor ~compact ?bitstate ()
    in
    wire_progress obs [| st |] (fun () -> 0);
    let walk () =
      with_cursor st (fun c -> ignore (visit None st c [] [] 0 0 [] : bool))
    in
    let witness =
      match walk () with
      | () -> None
      | exception Found_counterexample -> st.found
      | exception Cancelled ->
          raise
            (Interrupted
               (stats_of_states ~domains_used:1
                  ~elapsed_ns:(Clock.now_ns () - t0)
                  ~events_dropped:(Obs.events_dropped obs)
                  [ st ]))
    in
    finish ~domains_used:1 [ st ] witness
  end
  else begin
    (* Work-stealing fan-out: domains drain a shared lock-free stack of
       frontier items, and a busy domain publishes sibling subtrees
       whenever the stack runs low, so domains stay busy at every
       depth (not just across root branches).  The rank-least witness
       is selected at the join, so the counterexample is deterministic
       regardless of the steal schedule. *)
    let fan_out = domains in
    let shared =
      {
        queue = Atomic.make [];
        outstanding = Atomic.make 0;
        spawn_bound = 4 * fan_out;
        next_item = Atomic.make 0;
        best = Atomic.make None;
      }
    in
    let progress = Obs.progress obs in
    let states =
      Array.init fan_out (fun i ->
          new_state ~index:i ?capacity:cache_capacity
            ~sink:(Obs.sink obs ~index:i)
            ~progress:(if i = 0 then progress else Progress.off)
            ~sanitize ~dpor ~compact ?bitstate ())
    in
    wire_progress obs states (fun () -> Atomic.get shared.outstanding);
    let root_id = Atomic.fetch_and_add shared.next_item 1 in
    Telemetry.emit states.(0).sink Telemetry.Frontier_push root_id 0;
    push shared
      {
        it_id = root_id;
        it_owner = 0;
        it_script = [];
        it_len = 0;
        it_crashes = 0;
        it_sleep = [];
        it_rank = [];
      };
    let cancelled = Atomic.make false in
    let worker i () =
      let st = states.(i) in
      let rec loop () =
        if Atomic.get cancelled then ()
        else
        match pop shared with
        | Some it ->
            let skip =
              (* An item rank-greater than the best witness cannot
                 contain the least one; drop it. *)
              match Atomic.get shared.best with
              | Some (r, _, _) -> compare r it.it_rank <= 0
              | None -> false
            in
            if not skip then begin
              if it.it_owner <> st.index then begin
                st.steals <- st.steals + 1;
                Telemetry.emit st.sink Telemetry.Steal it.it_id it.it_owner
              end;
              (* A stolen item carries the publisher's {e candidate}
                 sleep set, settled by the probe's observation of the
                 item's last decision — so the replay stops short of
                 that decision, which is then applied (and observed)
                 on its own, exactly as the inline path applies it.
                 The publisher's history ids belong to its domain's
                 interner, so the replay re-interns. *)
              let prefix, last =
                match it.it_script with
                | [] -> ([], None)
                | d :: rest -> (List.rev rest, Some d)
              in
              (match
                 with_cursor st ~prefix (fun c ->
                     st.replayed <- st.replayed + it.it_len;
                     let sleep =
                       match last with
                       | Some d ->
                           Runner.Cursor.apply c d;
                           settle_sleep st c d it.it_sleep it.it_len
                       | None -> it.it_sleep
                     in
                     visit (Some shared) st c it.it_script
                       (List.rev it.it_rank) it.it_len it.it_crashes sleep)
               with
              | (_ : bool) -> ()
              | exception Cancelled -> Atomic.set cancelled true
              | exception Found_counterexample -> (
                  match st.found with
                  | Some w ->
                      record_witness shared w;
                      st.found <- None
                  | None -> ()))
            end;
            Atomic.decr shared.outstanding;
            loop ()
        | None ->
            if Atomic.get shared.outstanding > 0 then begin
              Domain.cpu_relax ();
              loop ()
            end
      in
      loop ()
    in
    let handles =
      List.init (fan_out - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    List.iter Domain.join handles;
    if Atomic.get cancelled then
      raise
        (Interrupted
           (stats_of_states ~domains_used:fan_out
              ~elapsed_ns:(Clock.now_ns () - t0)
              ~events_dropped:(Obs.events_dropped obs)
              (Array.to_list states)));
    finish ~domains_used:fan_out (Array.to_list states)
      (Atomic.get shared.best)
  end

(* ------------------------------------------------------------------ *)
(* The naive reference engine.                                         *)

let explore_naive ~n ~factory ~invoke ~depth ?(max_crashes = 0) ~check () =
  let t0 = Clock.now_ns () in
  let menu =
    decision_menu ~n ~invoke ~depth ~max_crashes ~symmetry:false
  in
  let st = new_state ~index:0 ~sink:Telemetry.null () in
  (* The retained reference engine: re-run the decision prefix from a
     fresh implementation instance at every node of the tree, exactly
     as the original explorer did.  Kept for differential testing and
     as the baseline the incremental/reduced engines' counters are
     measured against. *)
  let rec walk rev_script len crashes =
    st.nodes <- st.nodes + 1;
    (* The node's cursor is disposed of before its children are
       walked: each child replays its own prefix from scratch. *)
    let decisions =
      Runner.Cursor.with_ ~n ~factory:(factory ()) ~ticks:st.ticks
        ~prefix:(List.rev rev_script) (fun cursor ->
          st.replayed <- st.replayed + len;
          match fst (menu (Runner.Cursor.view cursor) len crashes) with
          | [] ->
              let r = Runner.Cursor.report cursor ~window:(max len 1) () in
              st.runs <- st.runs + 1;
              st.checked <- st.checked + 1;
              st.digest <- st.digest + Runtime.hash_value r.Run_report.history;
              if not (check r) then begin
                st.found <- Some ([], List.rev rev_script, r);
                raise Found_counterexample
              end;
              []
          | decisions -> decisions)
    in
    List.iter
      (fun d ->
        let crashes' =
          match d with Driver.Crash _ -> crashes + 1 | _ -> crashes
        in
        walk (d :: rev_script) (len + 1) crashes')
      decisions
  in
  let witness =
    match walk [] 0 0 with
    | () -> None
    | exception Found_counterexample -> st.found
  in
  let stats =
    stats_of_states ~domains_used:1
      ~elapsed_ns:(Clock.now_ns () - t0)
      ~events_dropped:0 [ st ]
  in
  match witness with
  | None ->
      { outcome = Ok stats.Explore_stats.runs; stats; witness_script = None }
  | Some (_, script, r) ->
      { outcome = Counterexample r; stats; witness_script = Some script }

let forall_schedules ~n ~factory ~invoke ~depth ?(max_crashes = 0) ~check () =
  (explore ~n ~factory ~invoke ~depth ~max_crashes ~check ()).outcome
