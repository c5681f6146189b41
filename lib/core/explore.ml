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
(* Exploration state.                                                  *)

(* The history-interning hook every cursor of a cached search is
   created with: it interns each appended event, then the (previous
   history id, event id) pair, so the cursor's [hist_id] stands in for
   its whole history. *)
let history_encoder () =
  let events = Intern.create () in
  let conses = Intern.create () in
  fun parent e -> Intern.intern conses (parent, Intern.intern events e)

(* A counterexample as first found: decision script, failing report.
   The walk is in menu order, so the first one found is the
   lexicographically least. *)
type ('inv, 'res) witness =
  ('inv, 'res) Driver.decision list * ('inv, 'res) Run_report.t

(* The mutable state of one exploration: its cursors' shared hooks,
   transposition table, telemetry sink and counters.  [sample] is the
   progress snapshot, installed once the state exists. *)
type ('inv, 'res) state = {
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
  mutable digest : int;
  mutable found : ('inv, 'res) witness option;
  ticks : int ref;
  table : (int, entry) Clock_cache.t;
      (* Transposition cache, keyed on interned compact keys: the
         cursor's [compact_key] (interned history id, digests, packed
         per-process state) with the sleep set's sorted process ids as
         its tail, interned into a dense id ({!Intern.Ints}).  The same
         configuration reached with different sleep sets explores
         different reduced subtrees, so the sleep set is part of the
         key. *)
  shadow : Runtime.shadow option;
      (* Sanitizer shadow shared by all the exploration's cursors:
         non-raising, non-recording — it only counts violations, so a
         sanitized exploration takes exactly the decisions an
         unsanitized one does. *)
  probe : Runtime.probe option;
      (* DPOR observed-access probe, likewise shared by the cursors:
         records what each executed step physically touched, from
         which the dynamic sleep-set filter computes race reversals.
         Recording only — decisions are unchanged. *)
  encode : (int -> ('inv, 'res) Event.t -> int) option;
      (* [history_encoder], installed exactly when the exact cache is
         live. *)
  keys : Intern.Ints.t;
      (* Interns the flat [compact_key] arrays into the dense ids the
         transposition cache is keyed on. *)
  bitstate : Bitstate.t option;
      (* Hash-compaction mode: replaces the exact transposition cache
         with a 2^bits-bit table of fingerprint hashes.  One-sided —
         a hit may be a collision, so the mode trades exhaustiveness
         for bounded memory and reports its own collision bound. *)
}

and entry = { e_runs : int; e_digest : int }

let new_state ?capacity ~sink ?(progress = Progress.off) ?(sanitize = false)
    ?(dpor = false) ?(keyed = false) ?bitstate () =
  {
    sink;
    progress;
    sample = (fun () -> Progress.zero);
    nodes = 0;
    runs = 0;
    checked = 0;
    replayed = 0;
    avoided = 0;
    hits = 0;
    sleeps = 0;
    reversals = 0;
    sym_pruned = 0;
    digest = 0;
    found = None;
    ticks = ref 0;
    table = Clock_cache.create ?capacity ~sink ();
    shadow =
      (if sanitize then
         Some (Runtime.make_shadow ~record:false ~raise_on_violation:false ())
       else None);
    probe = (if dpor then Some (Runtime.make_probe ()) else None);
    encode = (if keyed then Some (history_encoder ()) else None);
    keys = Intern.Ints.create ();
    bitstate = Option.map (fun bits -> Bitstate.create ~bits) bitstate;
  }

let stats_of_state ~elapsed_ns ~events_dropped st : Explore_stats.t =
  let bs f = match st.bitstate with Some b -> f b | None -> 0 in
  {
    Explore_stats.zero with
    Explore_stats.nodes = st.nodes;
    runs = st.runs;
    runs_checked = st.checked;
    steps_executed = !(st.ticks);
    steps_replayed = st.replayed;
    replays_avoided = st.avoided;
    cache_hits = st.hits;
    cache_entries = Clock_cache.length st.table;
    cache_evictions = Clock_cache.evictions st.table;
    por_prunes = st.sleeps;
    race_reversals = st.reversals;
    symmetry_pruned = st.sym_pruned;
    footprint_violations =
      (match st.shadow with
      | Some sh -> Runtime.shadow_violation_count sh
      | None -> 0);
    bitstate_bits = bs Bitstate.bits;
    bitstate_adds = bs Bitstate.adds;
    bitstate_hits = bs Bitstate.hits;
    bitstate_marks = bs Bitstate.marks;
    history_digest = st.digest;
    elapsed_ns;
    events_dropped;
  }

(* Install the progress sample: a plain read of the state's counters. *)
let wire_progress st =
  if Progress.enabled st.progress then
    st.sample <-
      (fun () ->
        {
          Progress.s_nodes = st.nodes;
          s_runs = st.runs;
          s_steps = !(st.ticks);
          s_cache_entries = Clock_cache.length st.table;
          s_cache_capacity =
            Option.value ~default:0 (Clock_cache.capacity st.table);
          s_cycles = 0;
        })

(* ------------------------------------------------------------------ *)
(* The incremental reduced engine.                                     *)

let explore ~n ~factory ~invoke ~depth ?(max_crashes = 0) ?(cache = true)
    ?cache_capacity ?(por = false) ?(dpor = false) ?(symmetry = false)
    ?(domains = 1) ?(obs = Obs.disabled) ?(sanitize = false) ?(compact = true)
    ?bitstate ?cancel ~check () =
  if domains <> 1 then invalid_arg "Explore.explore: domains must be 1";
  if not compact then invalid_arg "Explore.explore: compact must be true";
  if por && not dpor then invalid_arg "Explore.explore: por requires dpor";
  let t0 = Clock.now_ns () in
  let cancel = match cancel with Some f -> f | None -> fun () -> false in
  (* Keys are interned only for the exact cache: bitstate mode hashes
     the structural fingerprint directly (interning every visited
     configuration would defeat its bounded-memory point). *)
  let keyed = cache && bitstate = None in
  let menu = decision_menu ~n ~invoke ~depth ~max_crashes ~symmetry in
  let st =
    new_state ?capacity:cache_capacity ~sink:(Obs.sink obs)
      ~progress:(Obs.progress obs) ~sanitize ~dpor ~keyed ?bitstate ()
  in
  wire_progress st;
  (* Every cursor of the walk lives in one of these brackets: a
     sibling's cursor is disposed of as soon as its subtree is done
     (or unwinds), so at most [depth + 1] are live. *)
  let with_cursor ?prefix ?hist_id f =
    Runner.Cursor.with_ ~n ~factory:(factory ()) ~ticks:st.ticks
      ?shadow:st.shadow ?probe:st.probe ?encode:st.encode ?prefix ?hist_id f
  in
  (* Under DPOR, a child's sleep set is only a {e candidate} until its
     edge executes: the dynamic filter then wakes the sleepers whose
     pending actions raced with the step's observed accesses.  Returns
     the settled sleep set. *)
  let settle_sleep cursor d candidate len =
    let observed = Dpor.observed_step_mask st.probe in
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
  in
  (* Walk the subtree rooted at the configuration [cursor] sits on.
     The first child extends the cursor in place (the incremental step
     the naive engine lacks); each later sibling re-establishes the
     configuration by replaying the decision prefix into a fresh
     cursor, bracketed to its subtree.  Raises [Found_counterexample]
     with [st.found] set on the first failing maximal run, which under
     this in-order walk is the lexicographically least one; a subtree
     that unwinds writes no transposition entry.

     [visit] wraps [visit_body] in the telemetry node span; the span
     closes on every exit, [Found_counterexample] unwinds included, so
     traces stay balanced.  With the sink disabled the wrapper costs
     two branches and no [Fun.protect] frame. *)
  let rec visit cursor rev_script len crashes sleep =
    st.nodes <- st.nodes + 1;
    Progress.tick st.progress st.sample;
    if Telemetry.enabled st.sink then begin
      Telemetry.emit st.sink Telemetry.Node_enter len 0;
      Fun.protect
        ~finally:(fun () ->
          Telemetry.emit st.sink Telemetry.Node_leave len 0)
        (fun () -> visit_body cursor rev_script len crashes sleep)
    end
    else visit_body cursor rev_script len crashes sleep
  and visit_body cursor rev_script len crashes sleep =
    if cancel () then raise Cancelled;
    match st.bitstate with
    | Some bs
      when Bitstate.test_and_set bs
             (Runtime.hash_value (Runner.Cursor.fingerprint cursor, sleep)) ->
        (* Bitstate hit: the configuration's compacted hash was seen
           before — prune without crediting anything (the table stores
           no subtree data, and the hit may be a collision; the stats
           carry the Bloom bound that quantifies how often). *)
        st.hits <- st.hits + 1;
        Telemetry.emit st.sink Telemetry.Cache_hit len 0
    | _ ->
    (* The sleep set is sorted (children inherit a [sort_uniq]ed set,
       which [Dpor.advance_mask] filters in order), so its ids are a
       canonical key tail. *)
    let key =
      if not keyed then None
      else
        Some
          (Intern.Ints.intern st.keys
             (Runner.Cursor.compact_key cursor ~extra:sleep))
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
        Telemetry.emit st.sink Telemetry.Cache_hit len e.e_runs
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
              st.found <- Some (List.rev rev_script, r);
              raise Found_counterexample
            end
        | _ -> begin
            (* Sleep-set filter: a slept process's pending step
               commutes with every step taken since it went to sleep,
               so granting it here would reproduce, step-swapped, a run
               already explored from an earlier sibling. *)
            let asleep, active =
              if sleep <> [] then
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
                  key
            | _ ->
                let runs0 = st.runs and digest0 = st.digest in
                (* Children, each with its candidate sleep set: every
                   explored earlier sibling falls asleep for the later
                   ones, and [settle_sleep] wakes the racers from the
                   accesses [d] actually performed (crashes wake
                   everyone — a crash perturbs every process's view of
                   the crashed one). *)
                let children =
                  if not dpor then List.map (fun d -> (d, [])) active
                  else
                    List.fold_left
                      (fun (acc, prev) d ->
                        let child_sleep =
                          match d with Driver.Crash _ -> [] | _ -> prev
                        in
                        let prev' =
                          match d with
                          | Driver.Schedule p ->
                              List.sort_uniq Proc.compare (p :: prev)
                          | _ -> prev
                        in
                        ((d, child_sleep) :: acc, prev'))
                      ([], sleep) active
                    |> fst |> List.rev
                in
                (* Read before the first child extends [cursor] in
                   place: every later sibling replays this node's
                   prefix, whose history id this is. *)
                let hist_id = Runner.Cursor.hist_id cursor in
                List.iteri
                  (fun i (d, child_sleep) ->
                    let crashes' =
                      match d with
                      | Driver.Crash _ -> crashes + 1
                      | _ -> crashes
                    in
                    let descend child =
                      Telemetry.emit st.sink Telemetry.Decision (len + 1)
                        (dec_code d);
                      Runner.Cursor.apply child d;
                      let settled =
                        if dpor then settle_sleep child d child_sleep (len + 1)
                        else []
                      in
                      visit child (d :: rev_script) (len + 1) crashes' settled
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
                  children;
                Option.iter
                  (fun k ->
                    Clock_cache.replace st.table k
                      {
                        e_runs = st.runs - runs0;
                        e_digest = st.digest - digest0;
                      })
                  key
          end
      end
  in
  let stats () =
    stats_of_state
      ~elapsed_ns:(Clock.now_ns () - t0)
      ~events_dropped:(Obs.events_dropped obs)
      st
  in
  match with_cursor (fun c -> visit c [] 0 0 []) with
  | () ->
      let stats = stats () in
      { outcome = Ok stats.Explore_stats.runs; stats; witness_script = None }
  | exception Found_counterexample ->
      let script, r = Option.get st.found in
      { outcome = Counterexample r; stats = stats (); witness_script = Some script }
  | exception Cancelled -> raise (Interrupted (stats ()))

(* ------------------------------------------------------------------ *)
(* The naive reference engine.                                         *)

let explore_naive ~n ~factory ~invoke ~depth ?(max_crashes = 0) ~check () =
  let t0 = Clock.now_ns () in
  let menu =
    decision_menu ~n ~invoke ~depth ~max_crashes ~symmetry:false
  in
  let st = new_state ~sink:Telemetry.null () in
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
                st.found <- Some (List.rev rev_script, r);
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
    stats_of_state ~elapsed_ns:(Clock.now_ns () - t0) ~events_dropped:0 st
  in
  match witness with
  | None ->
      { outcome = Ok stats.Explore_stats.runs; stats; witness_script = None }
  | Some (script, r) ->
      { outcome = Counterexample r; stats; witness_script = Some script }

let forall_schedules ~n ~factory ~invoke ~depth ?(max_crashes = 0) ~check () =
  (explore ~n ~factory ~invoke ~depth ~max_crashes ~check ()).outcome
