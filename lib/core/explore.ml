open Slx_sim
module Telemetry = Slx_obs.Telemetry
module Obs = Slx_obs.Obs

type ('inv, 'res) outcome =
  | Ok of int
  | Counterexample of ('inv, 'res) Run_report.t

type ('inv, 'res) exploration = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;
  witness_script : ('inv, 'res) Driver.decision list option;
}

exception Interrupted = Search.Interrupted

(* ------------------------------------------------------------------ *)
(* Type-agnostic decision coding.                                      *)

let code_of_decision = Search.code_of_decision
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

let workload_invoke workload view p = workload p (view.Driver.invocations p)

(* ------------------------------------------------------------------ *)
(* The walk.                                                           *)

(* A counterexample as first found: decision script, failing report.
   The walk is in menu order, so the first one found is the
   lexicographically least. *)
type ('inv, 'res) witness =
  ('inv, 'res) Driver.decision list * ('inv, 'res) Run_report.t

(* A transposition entry: the completed, counterexample-free subtree's
   run count and final-history digest. *)
type entry = { e_runs : int; e_digest : int }

type ('inv, 'res) state = ('inv, 'res, entry, ('inv, 'res) witness) Search.t

(* A maximal run: check its report [r], crediting its final-history
   digest (and caching the one-run subtree under [key] before the
   verdict, as every other node writes its entry). *)
let check_run (st : _ state) ~check ~key r rev_script len =
  st.runs <- st.runs + 1;
  st.checked <- st.checked + 1;
  Telemetry.emit st.sink Telemetry.Run_checked len 0;
  let dh = Runtime.hash_value r.Run_report.history in
  st.digest <- st.digest + dh;
  Search.remember st key { e_runs = 1; e_digest = dh };
  if not (check r) then Search.found st (List.rev rev_script, r)

let check_leaf st ~check ~key cursor rev_script len =
  check_run st ~check ~key
    (Runner.Cursor.report cursor ~window:(max len 1) ())
    rev_script len

let exploration (st : _ state) found =
  let stats = Search.stats st in
  match found with
  | None ->
      { outcome = Ok stats.Explore_stats.runs; stats; witness_script = None }
  | Some (script, r) ->
      { outcome = Counterexample r; stats; witness_script = Some script }

(* ------------------------------------------------------------------ *)
(* The incremental reduced engine.                                     *)

let explore ~n ~factory ~invoke ~depth ?(max_crashes = 0) ?(cache = true)
    ?(por = false) ?(dpor = false) ?(symmetry = false) ?(domains = 1)
    ?(obs = Obs.disabled) ?(compact = true) ?cancel ~check () =
  if domains <> 1 then invalid_arg "Explore.explore: domains must be 1";
  if not compact then invalid_arg "Explore.explore: compact must be true";
  if por && not dpor then invalid_arg "Explore.explore: por requires dpor";
  (* The table is built only where a reduction is off.  Under DPOR
     plus symmetry the sleep sets prune nearly every transposition
     before it is reached, so keying and storing every node
     costs more than the rare hit saves (E42). *)
  let st : _ state =
    Search.create ~n ~factory
      ~cache:(cache && not (dpor && symmetry))
      ~dpor ?cancel obs
  in
  let menu =
    Search.menu ~invoke ~depth ~max_crashes ~symmetry ~invoke_order:false
  in
  (* The key tail: the crash the menu may add after the last decision,
     then the sleep set, which is sorted (children inherit a sorted set,
     which [Dpor.advance] filters in order), so it is canonical.  Only a
     walk with a table builds keys: its cursors alone are keyed. *)
  let keyed = Option.is_some st.table in
  let key_tail ~last crashes sleep =
    Search.crash_slot ~max_crashes ~last crashes :: Search.sleep_ids sleep
  in
  (* A transposition: an already-explored configuration (with the same
     crash slot and sleep set).  Its subtree was counterexample-free
     (failing subtrees abort the walk before an entry is written), so
     credit its runs and final-history digest without descending. *)
  let hit len e =
    Search.hit st len e.e_runs;
    st.digest <- st.digest + e.e_digest
  in
  (* Walk the subtree rooted at the configuration [cursor] sits on
     ({!Search.children} extends it in place for the first open child
     and replays the prefix for the others).  Stops at the first
     failing maximal run, which under this in-order walk is the
     lexicographically least one; a subtree that unwinds writes no
     transposition entry.  An open crash child arrives with [pre], the
     menu its parent took on its crash view, which is this node's. *)
  let rec visit ?pre cursor rev_script len crashes sleep =
    Search.node st len @@ fun () ->
    let last = List.nth_opt rev_script 0 in
    let key =
      if keyed then Some (Search.key cursor (key_tail ~last crashes sleep))
      else None
    in
    match Search.find st key with
    | Some e -> hit len e
    | None -> begin
        let decisions, sym_pruned =
          match pre with
          | Some m -> m
          | None -> menu (Runner.Cursor.view cursor) ~last len crashes
        in
        st.sym_pruned <- st.sym_pruned + sym_pruned;
        if sym_pruned > 0 then
          Telemetry.emit st.sink Telemetry.Symmetry_prune len sym_pruned;
        match decisions with
        | [] -> check_leaf st ~check ~key cursor rev_script len
        | _ -> begin
            (* Sleep-set filter: a slept step commutes with
               every decision taken since it went to sleep, so taking
               it here would reproduce, reordered, a run already
               explored from an earlier sibling. *)
            let asleep, active = Search.asleep sleep decisions in
            (* Each crash child is decided here from its menu: a dead
               one, whose menu offers only sleepers, is dropped as one
               prune instead of being built to find itself blocked
               (with an empty sleep set none is), and a leaf is checked
               from its snapshot without a cursor. *)
            let kids, dead =
              Search.classify ~menu cursor ~sleep len crashes active
            in
            let pruned = List.length asleep + dead in
            st.sleeps <- st.sleeps + pruned;
            if pruned > 0 then
              Telemetry.emit st.sink Telemetry.Por_sleep len pruned;
            match kids with
            | [] ->
                (* Everything enabled is asleep or a dead crash: every
                   extension is a reordering of an explored run.  Not a
                   maximal run — nothing to check, nothing to credit. *)
                Search.remember st key { e_runs = 0; e_digest = 0 }
            | _ ->
                let runs0 = st.runs and digest0 = st.digest in
                (* Every explored earlier step falls asleep for the
                   later siblings but a crash, and [Search.settle]
                   wakes the racers from the accesses [d] actually
                   performed. *)
                Search.children st cursor ~rev_script ~len ~sleep
                  ~apply:Runner.Cursor.apply
                  ~leaf:(fun x d child_sleep ->
                    leaf (Option.get x) (d :: rev_script) (len + 1)
                      (Search.crashes_after crashes d)
                      child_sleep)
                  kids
                  (fun child d child_sleep pre () ->
                    let settled =
                      if dpor then
                        Search.settle st d child_sleep (len + 1)
                      else []
                    in
                    visit ?pre child (d :: rev_script) (len + 1)
                      (Search.crashes_after crashes d)
                      settled);
                Search.remember st key
                  { e_runs = st.runs - runs0; e_digest = st.digest - digest0 }
          end
      end
  (* A crash leaf, as [visit] would walk its cursor: its menu is empty,
     so the node is a lookup then a check.  A crash wakes no sleeper,
     so its sleep set is its candidate, and the crash slot after a
     crash is 0. *)
  and leaf x rev_script len crashes sleep =
    Search.node st len @@ fun () ->
    let key =
      if keyed then
        Some
          (Runner.Cursor.crash_key x
             ~extra:(key_tail ~last:(List.nth_opt rev_script 0) crashes sleep))
      else None
    in
    match Search.find st key with
    | Some e -> hit len e
    | None ->
        check_run st ~check ~key
          (Runner.Cursor.crash_report x ~window:(max len 1) ())
          rev_script len
  in
  exploration st
    (Search.run st (fun () ->
         Search.with_cursor st (fun c -> visit c [] 0 0 [])))

(* ------------------------------------------------------------------ *)
(* The naive reference engine.                                         *)

let explore_naive ~n ~factory ~invoke ~depth ?(max_crashes = 0) ~check () =
  let st : _ state =
    Search.create ~n ~factory ~cache:false ~dpor:false Obs.disabled
  in
  (* The retained reference engine: re-run the decision prefix from a
     fresh implementation instance at every node of the tree, exactly
     as the original explorer did, on the unrestricted menu (a crash
     wherever one is enabled).  Kept for differential testing and as
     the baseline the incremental/reduced engines' counters are
     measured against. *)
  let rec walk rev_script len crashes =
    Search.node st len @@ fun () ->
    (* The node's cursor is disposed of before its children are
       walked: each child replays its own prefix from scratch. *)
    let decisions =
      Search.with_cursor st ~prefix:(List.rev rev_script) (fun cursor ->
          st.replayed <- st.replayed + len;
          match
            Search.full_menu ~invoke ~depth ~max_crashes
              (Runner.Cursor.view cursor) len crashes
          with
          | [] ->
              check_leaf st ~check ~key:None cursor rev_script len;
              []
          | decisions -> decisions)
    in
    List.iter
      (fun d ->
        walk (d :: rev_script) (len + 1) (Search.crashes_after crashes d))
      decisions
  in
  exploration st (Search.run st (fun () -> walk [] 0 0))
