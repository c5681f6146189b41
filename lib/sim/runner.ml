open Slx_history

type ('inv, 'res) impl = proc:Proc.t -> 'inv -> 'res
type ('inv, 'res) factory = n:int -> ('inv, 'res) impl

module Cursor = struct
  type ('inv, 'res) t = {
    n : int;
    impl : ('inv, 'res) impl;
    keyed : bool;
    registry : Runtime.registry;
    cells : Runtime.cell array;
    mutable history : ('inv, 'res) History.t;
    mutable rev_event_times : int list;
    mutable time : int;
    mutable rev_grants : (int * Proc.t) list;
    step_counts : int array;
    invocations : int array;  (* per process: invocations recorded *)
    events : int array;  (* per process: history events recorded *)
    mutable crashed : Proc.Set.t;
    ticks : int ref;
    mutable probe : Runtime.probe option;
    mutable history_digest : int;  (* constant on a keyless cursor *)
    (* The view's readers, built once: they read the arrays above. *)
    status : Proc.t -> Runtime.status;
    steps : Proc.t -> int;
    invocations_of : Proc.t -> int;
    events_of : Proc.t -> int;
  }

  let check_proc n p =
    if not (Proc.is_valid ~n p) then invalid_arg "Runner: bad process id"

  let create ~n ~factory ?(ticks = ref 0) ?probe ?(keyed = true) () =
    let registry = Runtime.fresh_registry ~keyed () in
    let impl = Runtime.with_registry registry (fun () -> factory ~n) in
    let cells = Array.init (n + 1) (fun _ -> Runtime.make_cell ~keyed ()) in
    let step_counts = Array.make (n + 1) 0 in
    let invocations = Array.make (n + 1) 0 in
    let events = Array.make (n + 1) 0 in
    {
      n;
      impl;
      keyed;
      registry;
      cells;
      history = History.empty;
      rev_event_times = [];
      time = 0;
      rev_grants = [];
      step_counts;
      invocations;
      events;
      crashed = Proc.Set.empty;
      ticks;
      probe;
      history_digest = 0;
      status =
        (fun p ->
          check_proc n p;
          Runtime.status cells.(p));
      steps = (fun p -> step_counts.(p));
      invocations_of = (fun p -> invocations.(p));
      events_of = (fun p -> events.(p));
    }

  let cell c p =
    check_proc c.n p;
    c.cells.(p)

  let view c : _ Driver.view =
    {
      Driver.time = c.time;
      n = c.n;
      history = c.history;
      status = c.status;
      steps = c.steps;
      invocations = c.invocations_of;
      events = c.events_of;
    }

  let record c e =
    c.history <- History.append c.history e;
    c.rev_event_times <- c.time :: c.rev_event_times;
    (* The per-process counts the view serves, so drivers and engines
       never rescan the history for them. *)
    let p = Event.proc e in
    c.events.(p) <- c.events.(p) + 1;
    (match e with
    | Event.Invocation _ -> c.invocations.(p) <- c.invocations.(p) + 1
    | Event.Response _ | Event.Crash _ -> ());
    (* The history's running digest, folded as a process's observation
       digest folds its atomic results, so a key never re-hashes the
       history.  A keyless cursor's key is never read, so it hashes
       nothing. *)
    if c.keyed then
      c.history_digest <-
        Runtime.combine c.history_digest (Runtime.hash_value e)

  (* One decision, registry-free: the caller keeps the cursor's
     registry current while algorithm code executes, because
     implementations may allocate base objects lazily, mid-run, and
     such objects must be fingerprinted too. *)
  let step c d =
    (match d with
    | Driver.Schedule p ->
        c.rev_grants <- (c.time, p) :: c.rev_grants;
        c.step_counts.(p) <- c.step_counts.(p) + 1;
        Runtime.grant (cell c p)
    | Driver.Invoke (p, inv) ->
        record c (Event.Invocation (p, inv));
        Runtime.spawn (cell c p) (fun () ->
            let res = c.impl ~proc:p inv in
            record c (Event.Response (p, res)))
    | Driver.Crash p ->
        if Proc.Set.mem p c.crashed then
          invalid_arg "Runner: crashing a crashed process";
        c.crashed <- Proc.Set.add p c.crashed;
        record c (Event.Crash p);
        Runtime.crash (cell c p)
    | Driver.Stop -> invalid_arg "Runner: cannot apply Stop");
    c.time <- c.time + 1;
    incr c.ticks

  (* The view [step]'s crash arm would leave, read without applying
     it: a crash touches no base object and no other process, so the
     configuration after it is this one with [p]'s status, [p]'s event
     count, the history and the clock moved. *)
  let crash_view c p : _ Driver.view =
    if Proc.Set.mem p c.crashed then
      invalid_arg "Runner: crashing a crashed process";
    let v = view c in
    let events = c.events.(p) + 1 in
    {
      v with
      Driver.time = c.time + 1;
      history = History.append c.history (Event.Crash p);
      status = (fun q -> if q = p then Runtime.Crashed else v.status q);
      events = (fun q -> if q = p then events else v.events q);
    }

  let apply c d =
    Runtime.with_registry ?probe:c.probe c.registry (fun () -> step c d)

  let detach c = c.probe <- None

  (* Prefix replay: every decision under one registry bracket, outside
     the probe — engines read the probe only for the
     edge they just applied, never for a replayed one. *)
  let replay c prefix =
    Runtime.with_registry c.registry (fun () -> List.iter (step c) prefix)

  (* Disposal: crash every process, under the cursor's own registry and
     outside any probe.  [Runtime.crash] discontinues each
     suspended continuation with [Killed], which unwinds the fiber and
     returns its stack to the runtime — OCaml 5.1 never reclaims the
     stack of a continuation that is merely dropped.  No tick, no
     history event, no probe observation: nothing an
     explorer counts can move. *)
  let dispose c =
    Runtime.with_registry c.registry (fun () ->
        for p = 1 to c.n do
          Runtime.crash c.cells.(p)
        done)

  let with_ ~n ~factory ?ticks ?probe ?keyed ?(prefix = []) f =
    let c = create ~n ~factory ?ticks ?probe ?keyed () in
    Fun.protect
      ~finally:(fun () -> dispose c)
      (fun () ->
        replay c prefix;
        f c)

  let report_of ~n ~history ~rev_event_times ~time ~rev_grants ~crashed
      ?window ?(stopped = `Max_steps) () =
    let window = Option.value window ~default:(max 1 (time / 2)) in
    {
      Run_report.n;
      history;
      event_times = Array.of_list (List.rev rev_event_times);
      grants = List.rev rev_grants;
      crashed;
      total_time = time;
      window;
      stopped;
    }

  let report c =
    report_of ~n:c.n ~history:c.history ~rev_event_times:c.rev_event_times
      ~time:c.time ~rev_grants:c.rev_grants ~crashed:c.crashed

  let status_code = function
    | Runtime.Idle -> 0
    | Runtime.Ready -> 1
    | Runtime.Crashed -> 2

  (* The configuration as a flat int array: the history is represented
     by its running digest and the crash set by the per-process status
     codes (a process is crashed iff its status is).  [extra] lets
     callers append engine-specific key components (sleep sets,
     trace-suffix cells). *)
  let compact_key c ~extra =
    let n = c.n in
    let a = Array.make (3 + (2 * n) + List.length extra) 0 in
    a.(0) <- c.time;
    a.(1) <- c.history_digest;
    a.(2) <- Runtime.registry_digest c.registry;
    for p = 1 to n do
      let cell = c.cells.(p) in
      a.(1 + (2 * p)) <-
        (c.step_counts.(p) lsl 2) lor status_code (Runtime.status cell);
      a.(2 + (2 * p)) <- Runtime.obs cell
    done;
    List.iteri (fun i v -> a.(3 + (2 * n) + i) <- v) extra;
    a

  (* Each raises on a keyless cursor: its registry keeps no digest. *)
  let shared_digest c = Runtime.registry_digest c.registry
  let shared_digest_full c = Runtime.registry_digest_full c.registry

  (* The run [step]'s crash arm would leave, as the parent's values:
     the history, times, grants and crash set are persistent, and the
     key part is copied out, so the snapshot survives the cursor moving
     on.  The crash's own effect is applied when a report or key is
     read.  A keyless cursor's snapshot has no key part. *)
  type ('inv, 'res) crash = {
    x_proc : Proc.t;
    x_n : int;
    x_time : int;
    x_history : ('inv, 'res) History.t;
    x_rev_event_times : int list;
    x_rev_grants : (int * Proc.t) list;
    x_crashed : Proc.Set.t;
    x_key : int array option;
  }

  let crash c p =
    if Proc.Set.mem p c.crashed then
      invalid_arg "Runner: crashing a crashed process";
    {
      x_proc = p;
      x_n = c.n;
      x_time = c.time;
      x_history = c.history;
      x_rev_event_times = c.rev_event_times;
      x_rev_grants = c.rev_grants;
      x_crashed = c.crashed;
      x_key = (if c.keyed then Some (compact_key c ~extra:[]) else None);
    }

  (* [record]'s append and [step]'s tick: [Crash p] stamped with the
     parent's clock, the clock one later, [p] in the crash set. *)
  let crash_report x =
    report_of ~n:x.x_n
      ~history:(History.append x.x_history (Event.Crash x.x_proc))
      ~rev_event_times:(x.x_time :: x.x_rev_event_times)
      ~time:(x.x_time + 1) ~rev_grants:x.x_rev_grants
      ~crashed:(Proc.Set.add x.x_proc x.x_crashed)

  (* [compact_key]'s fields after the crash: the clock one later, the
     history digest extended by [Crash p] as [record] would extend it,
     and [p]'s status code [Crashed] over its unchanged step count.
     The shared digest and every observation digest stand: a crash
     writes neither. *)
  let crash_key x ~extra =
    let key =
      match x.x_key with
      | Some key -> key
      | None -> invalid_arg "Runner.Cursor.crash_key: keyless cursor"
    in
    let m = Array.length key in
    let a = Array.make (m + List.length extra) 0 in
    Array.blit key 0 a 0 m;
    a.(0) <- x.x_time + 1;
    a.(1) <-
      Runtime.combine key.(1) (Runtime.hash_value (Event.Crash x.x_proc));
    let i = 1 + (2 * x.x_proc) in
    a.(i) <- (a.(i) land lnot 3) lor status_code Runtime.Crashed;
    List.iteri (fun j v -> a.(m + j) <- v) extra;
    a
end

let run ~n ~factory ~driver ~max_steps ?window () =
  let window = Option.value window ~default:(max_steps / 2) in
  Cursor.with_ ~n ~factory ~keyed:false (fun c ->
      let stopped = ref `Max_steps in
      (try
         while c.Cursor.time < max_steps do
           match driver (Cursor.view c) with
           | Driver.Stop ->
               let quiescent =
                 List.for_all
                   (fun p -> Runtime.status (Cursor.cell c p) <> Runtime.Ready)
                   (Proc.all ~n)
               in
               stopped := (if quiescent then `Quiescent else `Driver_stop);
               raise Exit
           | d -> Cursor.apply c d
         done
       with Exit -> ());
      Cursor.report c ~window ~stopped:!stopped ())

let history ~n ~factory ~driver ~max_steps =
  (run ~n ~factory ~driver ~max_steps ()).Run_report.history
