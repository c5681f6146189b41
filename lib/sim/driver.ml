open Slx_history

type ('inv, 'res) view = {
  time : int;
  n : int;
  history : ('inv, 'res) History.t;
  status : Proc.t -> Runtime.status;
  steps : Proc.t -> int;
  invocations : Proc.t -> int;
  events : Proc.t -> int;
}

type ('inv, 'res) decision =
  | Schedule of Proc.t
  | Invoke of Proc.t * 'inv
  | Crash of Proc.t
  | Stop

type ('inv, 'res) t = ('inv, 'res) view -> ('inv, 'res) decision

type ('inv, 'res) workload = Proc.t -> int -> 'inv option

let forever f : _ workload = fun p _ -> Some (f p)

let n_times n f : _ workload = fun p k -> if k < n then Some (f p k) else None

(* The decision for one candidate process, if any: step it if ready,
   invoke it if idle and [next] has more work for it. *)
let eligible next view p =
  match view.status p with
  | Runtime.Ready -> Some (Schedule p)
  | Runtime.Idle -> begin
      match next view p with
      | Some inv -> Some (Invoke (p, inv))
      | None -> None
    end
  | Runtime.Crashed -> None

let of_workload workload view p = workload p (view.invocations p)

let round_robin_by ?procs next : _ t =
  let cursor = ref 0 in
  fun view ->
    let procs = Option.value procs ~default:(Proc.all ~n:view.n) in
    let len = List.length procs in
    let rec try_from k =
      if k >= len then Stop
      else
        let p = List.nth procs ((!cursor + k) mod len) in
        match eligible next view p with
        | Some d ->
            cursor := (!cursor + k + 1) mod len;
            d
        | None -> try_from (k + 1)
    in
    try_from 0

let random_by ?procs ~seed next : _ t =
  let rng = Random.State.make [| seed |] in
  fun view ->
    let procs = Option.value procs ~default:(Proc.all ~n:view.n) in
    let candidates = List.filter_map (eligible next view) procs in
    match candidates with
    | [] -> Stop
    | _ :: _ ->
        List.nth candidates (Random.State.int rng (List.length candidates))

let fold_procs ~init step () =
  let states = ref [||] and seen = ref 0 in
  fun view p ->
    if Array.length !states = 0 then states := Array.make (view.n + 1) init;
    let len = History.length view.history in
    List.iter
      (fun e ->
        let q = Event.proc e in
        !states.(q) <- step !states.(q) e)
      (History.latest view.history (len - !seen));
    seen := len;
    !states.(p)

let round_robin ?procs ~workload () =
  round_robin_by ?procs (of_workload workload)

let random ?procs ~seed ~workload () =
  random_by ?procs ~seed (of_workload workload)

let solo p ~workload : _ t =
 fun view ->
  match eligible (of_workload workload) view p with Some d -> d | None -> Stop

let of_script decisions : _ t =
  let remaining = ref decisions in
  fun _view ->
    match !remaining with
    | [] -> Stop
    | d :: rest ->
        remaining := rest;
        d

let with_crashes crashes d : _ t =
  let pending = ref crashes in
  fun view ->
    match List.find_opt (fun (t, _) -> t <= view.time) !pending with
    | Some ((_, p) as c) when view.status p <> Runtime.Crashed ->
        pending := List.filter (fun c' -> c' <> c) !pending;
        Crash p
    | Some ((_, _) as c) ->
        (* Already crashed by other means; drop the injection. *)
        pending := List.filter (fun c' -> c' <> c) !pending;
        d view
    | None -> d view

let stop_after limit d : _ t =
 fun view -> if view.time >= limit then Stop else d view
