open Slx_history
open Slx_sim
module Telemetry = Slx_obs.Telemetry
module Progress = Slx_obs.Progress
module Obs = Slx_obs.Obs
module Clock = Slx_obs.Clock

exception Interrupted of Explore_stats.t

(* Internal: a walk called [found]; caught by [run]. *)
exception Found

(* Internal: a [cancel] poll came back true; converted to [Interrupted]
   (with the partial stats attached) by [run]. *)
exception Cancelled

type ('inv, 'res, 'v, 'f) t = {
  n : int;
  factory : unit -> ('inv, 'res) Runner.factory;
  obs : Obs.t;
  sink : Telemetry.sink;
  progress : Progress.t;
  mutable sample : unit -> Progress.sample;
  cancel : unit -> bool;
  t0 : int;
  mutable nodes : int;
  mutable runs : int;
  mutable checked : int;
  mutable replayed : int;
  mutable avoided : int;
  mutable hits : int;
  mutable sleeps : int;
  mutable reversals : int;
  mutable sym_pruned : int;
  mutable invoke_pruned : int;
  mutable proviso : int;
  mutable cycles : int;
  mutable fair : int;
  mutable digest : int;
  mutable found : 'f option;
  ticks : int ref;
  table : 'v Key_table.t option;
  probe : Runtime.probe option;
}

let create ~n ~factory ~cache ~dpor ?(cancel = fun () -> false) obs =
  let sink = Obs.sink obs in
  let st =
    {
      n;
      factory;
      obs;
      sink;
      progress = Obs.progress obs;
      sample = (fun () -> Progress.zero);
      cancel;
      t0 = Clock.now_ns ();
      nodes = 0;
      runs = 0;
      checked = 0;
      replayed = 0;
      avoided = 0;
      hits = 0;
      sleeps = 0;
      reversals = 0;
      sym_pruned = 0;
      invoke_pruned = 0;
      proviso = 0;
      cycles = 0;
      fair = 0;
      digest = 0;
      found = None;
      ticks = ref 0;
      table = (if cache then Some (Key_table.create 512) else None);
      probe = (if dpor then Some (Runtime.make_probe ()) else None);
    }
  in
  (* The progress sample: a plain read of the counters. *)
  if Progress.enabled st.progress then
    st.sample <-
      (fun () ->
        {
          Progress.s_nodes = st.nodes;
          s_runs = st.runs;
          s_steps = !(st.ticks);
          s_cache_entries = Option.fold ~none:0 ~some:Key_table.length st.table;
          s_cycles = st.cycles;
        });
  st

let stats st : Explore_stats.t =
  {
    Explore_stats.nodes = st.nodes;
    runs = st.runs;
    runs_checked = st.checked;
    steps_executed = !(st.ticks);
    steps_replayed = st.replayed;
    replays_avoided = st.avoided;
    cache_hits = st.hits;
    cache_entries = Option.fold ~none:0 ~some:Key_table.length st.table;
    por_prunes = st.sleeps;
    race_reversals = st.reversals;
    invoke_order_prunes = st.invoke_pruned;
    proviso_wakes = st.proviso;
    symmetry_pruned = st.sym_pruned;
    cycles_examined = st.cycles;
    fair_cycles = st.fair;
    elapsed_ns = Clock.now_ns () - st.t0;
    events_dropped = Obs.events_dropped st.obs;
    history_digest = st.digest;
  }

(* A cursor keeps its key digests only where the table reads them. *)
let with_cursor st ?prefix f =
  Runner.Cursor.with_ ~n:st.n ~factory:(st.factory ()) ~ticks:st.ticks
    ?probe:st.probe ~keyed:(Option.is_some st.table) ?prefix f

let node st len body =
  st.nodes <- st.nodes + 1;
  Progress.tick st.progress st.sample;
  if Telemetry.enabled st.sink then begin
    Telemetry.emit st.sink Telemetry.Node_enter len 0;
    Fun.protect
      ~finally:(fun () -> Telemetry.emit st.sink Telemetry.Node_leave len 0)
      (fun () ->
        if st.cancel () then raise Cancelled;
        body ())
  end
  else begin
    if st.cancel () then raise Cancelled;
    body ()
  end

(* A decision as a small int: the persistent form stored witness
   scripts use, and what a [Decision] telemetry event carries.
   [Invoke] payloads are deliberately not encoded: every engine
   constructs an invocation as [invoke view p], so a decoder holding
   the same [invoke] re-derives the identical payload from the view at
   the point of application.  [Stop] never appears in a menu. *)
let code_of_decision = function
  | Driver.Schedule p -> p lsl 2
  | Driver.Invoke (p, _) -> (p lsl 2) lor 1
  | Driver.Crash p -> (p lsl 2) lor 2
  | Driver.Stop -> invalid_arg "Explore.code_of_decision: Stop"

let full_menu ~invoke ~depth ~max_crashes view len crashes =
  if len >= depth then []
  else begin
    let procs = Proc.all ~n:view.Driver.n in
    List.filter_map
      (fun p ->
        match view.Driver.status p with
        | Runtime.Ready -> Some (Driver.Schedule p)
        | Runtime.Idle ->
            Option.map (fun inv -> Driver.Invoke (p, inv)) (invoke view p)
        | Runtime.Crashed -> None)
      procs
    @
    if crashes < max_crashes then
      List.filter_map
        (fun p ->
          if view.Driver.status p = Runtime.Crashed then None
          else Some (Driver.Crash p))
        procs
    else []
  end

(* Where a crash is offered.  [len = crashes] says the script so far is
   all crashes: the root prefix, which takes them in ascending order.
   Anywhere else [Crash p] follows a step or invocation of [p]. *)
let crash_placed ~last len crashes p =
  match last with
  | Some (Driver.Schedule q | Driver.Invoke (q, _)) -> q = p
  | Some (Driver.Crash q) -> len = crashes && q < p
  | None | Some Driver.Stop -> true

(* A root prefix's crashes are in the history, so it needs no slot. *)
let crash_slot ~max_crashes ~last crashes =
  match last with
  | Some (Driver.Schedule p | Driver.Invoke (p, _)) when crashes < max_crashes
    ->
      p
  | _ -> 0

(* One walk's menu state: its filters and the [Schedule p] and
   [Crash p] values every node's menu shares, fixed per walk; the
   node's position and the pass's own counters, reset at each call. *)
type ('inv, 'res) pass = {
  invoke : ('inv, 'res) Driver.view -> Proc.t -> 'inv option;
  symmetry : bool;
  invoke_order : bool;
  mutable schedules : ('inv, 'res) Driver.decision array;
  mutable crash_of : ('inv, 'res) Driver.decision array;
  mutable last : ('inv, 'res) Driver.decision option;
  mutable len : int;
  mutable crashes : int;
  mutable can_crash : bool;
  mutable pruned : int;
  mutable invoked : bool;  (* a filtered invocation has been offered *)
  mutable crashed : bool;  (* an untouched process's crash has been offered *)
  mutable rev_crashes : ('inv, 'res) Driver.decision list;
}

(* Whether a filtered candidate is the first of its kind; every later
   one counts as pruned. *)
let first_invocation m =
  if m.invoked then m.pruned <- m.pruned + 1;
  let first = not m.invoked in
  m.invoked <- true;
  first

let first_crash m =
  if m.crashed then m.pruned <- m.pruned + 1;
  let first = not m.crashed in
  m.crashed <- true;
  first

(* Processes [p..n]: each one's step or invocation, in process order,
   then the crashes collected on the way.  Under [invoke_order], or
   under [symmetry] for an untouched process, only the least candidate
   invocation is offered, and under [symmetry] only the least untouched
   process's crash. *)
let rec menu_from m view p =
  if p > view.Driver.n then List.rev m.rev_crashes
  else begin
    let status = view.Driver.status p in
    let untouched = m.symmetry && view.Driver.events p = 0 in
    if
      m.can_crash && status <> Runtime.Crashed
      && crash_placed ~last:m.last m.len m.crashes p
      && ((not untouched) || first_crash m)
    then m.rev_crashes <- m.crash_of.(p) :: m.rev_crashes;
    match status with
    | Runtime.Ready ->
        let rest = menu_from m view (p + 1) in
        m.schedules.(p) :: rest
    | Runtime.Crashed -> menu_from m view (p + 1)
    | Runtime.Idle -> (
        match m.invoke view p with
        | Some inv
          when (not (m.invoke_order || untouched)) || first_invocation m ->
            let d = Driver.Invoke (p, inv) in
            d :: menu_from m view (p + 1)
        | _ -> menu_from m view (p + 1))
  end

(* One pass over 1..n with no intermediate list.  The pass state is
   built once per partial application, so a walk that applies this to
   its labelled arguments once shares it across every node. *)
let menu ~invoke ~depth ~max_crashes ~symmetry ~invoke_order =
  let m =
    {
      invoke;
      symmetry;
      invoke_order;
      schedules = [||];
      crash_of = [||];
      last = None;
      len = 0;
      crashes = 0;
      can_crash = false;
      pruned = 0;
      invoked = false;
      crashed = false;
      rev_crashes = [];
    }
  in
  fun view ~last len crashes ->
    if len >= depth then ([], 0)
    else begin
      let n = view.Driver.n in
      if Array.length m.schedules <> n + 1 then begin
        m.schedules <- Array.init (n + 1) (fun p -> Driver.Schedule p);
        m.crash_of <- Array.init (n + 1) (fun p -> Driver.Crash p)
      end;
      m.last <- last;
      m.len <- len;
      m.crashes <- crashes;
      m.can_crash <- crashes < max_crashes;
      m.pruned <- 0;
      m.invoked <- false;
      m.crashed <- false;
      m.rev_crashes <- [];
      let decisions = menu_from m view 1 in
      m.last <- None;
      m.rev_crashes <- [];
      (decisions, m.pruned)
    end

type sleep = Dpor.sleep

let sleep_ids sleep = List.map fst sleep

let asleep sleep decisions =
  if sleep = [] then ([], decisions)
  else
    List.partition
      (function Driver.Schedule p -> List.mem_assoc p sleep | _ -> false)
      decisions

(* [p], whose step observed [fp], added to the sleep set [sleep],
   sorted by process and duplicate-free. *)
let rec insert p fp = function
  | ((q, _) as z) :: rest as sleep ->
      if p < q then (p, fp) :: sleep
      else if p = q then sleep
      else z :: insert p fp rest
  | [] -> [ (p, fp) ]

type crash_child = Dead | Leaf | Open

(* The crash child's menu, taken once on the view after the crash, and
   what it makes of the child. *)
let crash_menu ~menu view ~sleep len crashes q =
  let ((ds, _) as m) =
    menu view ~last:(Some (Driver.Crash q)) (len + 1) (crashes + 1)
  in
  let kind =
    match ds with
    | [] -> Leaf
    | ds ->
        if
          sleep <> []
          && List.for_all
               (function
                 | Driver.Schedule p -> List.mem_assoc p sleep | _ -> false)
               ds
        then Dead
        else Open
  in
  (kind, m)

let crash_child ~menu view ~sleep len crashes q =
  fst (crash_menu ~menu view ~sleep len crashes q)

type ('inv, 'res) child =
  | Descend of (('inv, 'res) Driver.decision list * int) option
  | Crash_leaf of ('inv, 'res) Runner.Cursor.crash
  | Step_leaf

let classify ~menu cursor ~sleep len crashes decisions =
  let dead = ref 0 in
  let kids =
    List.filter_map
      (fun d ->
        match d with
        | Driver.Crash q -> (
            match
              crash_menu ~menu
                (Runner.Cursor.crash_view cursor q)
                ~sleep len crashes q
            with
            | Dead, _ ->
                incr dead;
                None
            | Leaf, _ -> Some (d, Crash_leaf (Runner.Cursor.crash cursor q))
            | Open, m -> Some (d, Descend (Some m)))
        | _ -> Some (d, Descend None))
      decisions
  in
  (kids, !dead)

let children st cursor ~rev_script ~len ~sleep ~apply ~leaf kids descend =
  let dpor = Option.is_some st.probe in
  (* Apply [d] on [child] and descend, returning the footprint the
     step observed, read before the descent runs further steps. *)
  let run child d z menu =
    let applied = apply child d in
    let fp = Dpor.observed_step st.probe in
    descend child d z menu applied;
    fp
  in
  (* [prev]: the node's sleep set plus every earlier sibling's step,
     with the footprint that step observed.  A step leaf never runs,
     so its entry is opaque; no sleep set holding it is settled. *)
  let rec walk in_place prev = function
    | [] -> ()
    | (d, kid) :: kids ->
        Telemetry.emit st.sink Telemetry.Decision (len + 1)
          (code_of_decision d);
        let z =
          if not dpor then []
          else match d with Driver.Crash _ -> sleep | _ -> prev
        in
        let fp, in_place =
          match kid with
          | Crash_leaf x ->
              leaf (Some x) d z;
              (Runtime.opaque, in_place)
          | Step_leaf ->
              leaf None d z;
              (Runtime.opaque, in_place)
          | Descend menu when in_place ->
              st.avoided <- st.avoided + 1;
              (run cursor d z menu, false)
          | Descend menu ->
              ( with_cursor st ~prefix:(List.rev rev_script) (fun child ->
                    st.replayed <- st.replayed + len;
                    run child d z menu),
                false )
        in
        let next =
          match d with
          | Driver.Schedule p when dpor -> insert p fp prev
          | _ -> prev
        in
        walk in_place next kids
  in
  walk true sleep kids

let settle st d sleep len =
  let keep, woken =
    Dpor.advance ~observed:(Dpor.observed_step st.probe) sleep d
  in
  if woken <> [] then begin
    st.reversals <- st.reversals + List.length woken;
    Telemetry.emit st.sink Telemetry.Race_reversal len (List.length woken)
  end;
  keep

let crashes_after crashes = function
  | Driver.Crash _ -> crashes + 1
  | _ -> crashes

let key cursor extra = Runner.Cursor.compact_key cursor ~extra

let find st key =
  match (st.table, key) with
  | Some t, Some k -> Key_table.find_opt t k
  | _ -> None

let remember st key v =
  match (st.table, key) with
  | Some t, Some k -> Key_table.replace t k v
  | _ -> ()

let hit st len runs =
  st.hits <- st.hits + 1;
  st.runs <- st.runs + runs;
  Telemetry.emit st.sink Telemetry.Cache_hit len runs

let found st w =
  st.found <- Some w;
  raise Found

let run st walk =
  match walk () with
  | () -> None
  | exception Found -> st.found
  | exception Cancelled -> raise (Interrupted (stats st))
