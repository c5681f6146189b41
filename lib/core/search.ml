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
  shadow : Runtime.shadow option;
  probe : Runtime.probe option;
  encode : (int -> ('inv, 'res) Event.t -> int) option;
}

(* The [encode] hook of a cached search's cursors (see the field's
   documentation). *)
let history_encoder () =
  let events = Intern.create () in
  let conses = Intern.create () in
  fun parent e -> Intern.intern conses (parent, Intern.intern events e)

let create ~n ~factory ~cache ~dpor ~sanitize ?(cancel = fun () -> false)
    obs =
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
      shadow =
        (if sanitize then
           Some (Runtime.make_shadow ~record:false ~raise_on_violation:false ())
         else None);
      probe = (if dpor then Some (Runtime.make_probe ()) else None);
      encode = (if cache then Some (history_encoder ()) else None);
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
    footprint_violations =
      (match st.shadow with
      | Some sh -> Runtime.shadow_violation_count sh
      | None -> 0);
    elapsed_ns = Clock.now_ns () - st.t0;
    events_dropped = Obs.events_dropped st.obs;
    history_digest = st.digest;
  }

let with_cursor st ?prefix ?hist_id f =
  Runner.Cursor.with_ ~n:st.n ~factory:(st.factory ()) ~ticks:st.ticks
    ?shadow:st.shadow ?probe:st.probe ?encode:st.encode ?prefix ?hist_id f

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

(* The packed int a [Decision] telemetry event carries. *)
let dec_code = function
  | Driver.Schedule p -> Telemetry.Dec.schedule (Proc.hash p)
  | Driver.Invoke (p, _) -> Telemetry.Dec.invoke (Proc.hash p)
  | Driver.Crash p -> Telemetry.Dec.crash (Proc.hash p)
  | Driver.Stop -> Telemetry.Dec.schedule 0  (* never in a menu *)

let menu_with ~crash ~invoke ~depth ~max_crashes view len crashes =
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
          if view.Driver.status p = Runtime.Crashed || not (crash p) then None
          else Some (Driver.Crash p))
        procs
    else []
  end

let full_menu ~invoke ~depth ~max_crashes view len crashes =
  menu_with ~crash:(fun _ -> true) ~invoke ~depth ~max_crashes view len crashes

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

let menu ~invoke ~depth ~max_crashes ~symmetry ~invoke_order view ~last len
    crashes =
  let untouched p = view.Driver.events p = 0 in
  let pruned = ref 0 and invoked = ref false and crashed = ref false in
  let first seen =
    let taken = !seen in
    if taken then incr pruned;
    seen := true;
    not taken
  in
  let decisions =
    List.filter
      (function
        | Driver.Invoke (p, _) when invoke_order || (symmetry && untouched p) ->
            first invoked
        | Driver.Crash p when symmetry && untouched p -> first crashed
        | _ -> true)
      (menu_with ~crash:(crash_placed ~last len crashes) ~invoke ~depth
         ~max_crashes view len crashes)
  in
  (decisions, !pruned)

let asleep sleep decisions =
  if sleep = [] then ([], decisions)
  else
    List.partition
      (function Driver.Schedule p -> List.mem p sleep | _ -> false)
      decisions

let sleep_sets sleep kids =
  List.fold_left
    (fun (acc, prev) (d, x) ->
      match d with
      | Driver.Schedule p ->
          ((d, x, prev) :: acc, List.sort_uniq Int.compare (p :: prev))
      | Driver.Crash _ -> ((d, x, sleep) :: acc, prev)
      | _ -> ((d, x, prev) :: acc, prev))
    ([], sleep) kids
  |> fst |> List.rev

type crash_child = Dead | Leaf | Open

let crash_child ~menu view ~sleep len crashes q =
  match
    fst (menu view ~last:(Some (Driver.Crash q)) (len + 1) (crashes + 1))
  with
  | [] -> Leaf
  | ds ->
      if
        sleep <> []
        && List.for_all
             (function Driver.Schedule p -> List.mem p sleep | _ -> false)
             ds
      then Dead
      else Open

let classify ~menu cursor ~sleep len crashes decisions =
  let dead = ref 0 in
  let kids =
    List.filter_map
      (fun d ->
        match d with
        | Driver.Crash q -> (
            match
              crash_child ~menu
                (Runner.Cursor.crash_view cursor q)
                ~sleep len crashes q
            with
            | Dead ->
                incr dead;
                None
            | Leaf -> Some (d, Some (Runner.Cursor.crash cursor q))
            | Open -> Some (d, None))
        | _ -> Some (d, None))
      decisions
  in
  (kids, !dead)

let children st cursor ~rev_script ~len ~sleep ~apply ~leaf kids descend =
  (* Read before the first open child extends [cursor] in place: every
     later sibling replays this node's prefix, whose history id this
     is. *)
  let hist_id = Runner.Cursor.hist_id cursor in
  let kids =
    if Option.is_none st.probe then List.map (fun (d, x) -> (d, x, [])) kids
    else sleep_sets sleep kids
  in
  let in_place = ref true in
  List.iter
    (fun (d, crash, z) ->
      Telemetry.emit st.sink Telemetry.Decision (len + 1) (dec_code d);
      match crash with
      | Some x -> leaf x d z
      | None when !in_place ->
          in_place := false;
          st.avoided <- st.avoided + 1;
          descend cursor d z (apply cursor d)
      | None ->
          with_cursor st ~prefix:(List.rev rev_script) ~hist_id (fun child ->
              st.replayed <- st.replayed + len;
              descend child d z (apply child d)))
    kids

let settle st cursor d sleep len =
  let keep, woken =
    Dpor.advance
      ~observed:(Dpor.observed_step st.probe)
      ~pending:(Runner.Cursor.pending cursor)
      sleep d
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

let find st k =
  match st.table with Some t -> Key_table.find_opt t k | None -> None

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
