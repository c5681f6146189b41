open Slx_history
open Slx_sim

let trace_period ~equal xs =
  let xs = Array.of_list xs in
  let len = Array.length xs in
  let is_period p =
    let ok = ref true in
    for i = 0 to len - 1 - p do
      if not (equal xs.(i) xs.(i + p)) then ok := false
    done;
    !ok
  in
  let rec find p =
    if p > len / 2 then None else if is_period p then Some p else find (p + 1)
  in
  if len < 2 then None else find 1

(* The element kinds of a tick's cell, indexing their skeleton
   names: the grant, then the events' constructors. *)
let kind_names = [| "step"; "inv"; "res"; "crash" |]

let element_string p kind = Printf.sprintf "p%d:%s" p kind_names.(kind)

let event_kind = function
  | Event.Invocation _ -> 1
  | Event.Response _ -> 2
  | Event.Crash _ -> 3

let skeleton e = element_string (Event.proc e) (event_kind e)

let tick_cells r =
  (* The observable activity per tick, in tick order: the scheduling
     grant (if any) followed by the external events recorded at that
     tick.  Runs whose liveness violation shows up as pure silence (no
     events) are still periodic in their grants. *)
  let events = History.to_list r.Run_report.history in
  let events_at = Hashtbl.create 64 in
  List.iteri
    (fun i e ->
      let t = r.Run_report.event_times.(i) in
      Hashtbl.replace events_at t
        (skeleton e :: Option.value (Hashtbl.find_opt events_at t) ~default:[]))
    events;
  let grant_at = Hashtbl.create 64 in
  List.iter (fun (t, p) -> Hashtbl.replace grant_at t p) r.Run_report.grants;
  let tick t =
    let grant =
      match Hashtbl.find_opt grant_at t with
      | Some p -> [ element_string p 0 ]
      | None -> []
    in
    grant @ List.rev (Option.value (Hashtbl.find_opt events_at t) ~default:[])
  in
  List.init r.Run_report.total_time tick

(* Cell codes.  A cell element is the 7-bit [(p lsl 2) lor kind] plus
   one, so 0 marks an empty slot; element [i] of the cell sits in the
   8-bit slot [i] of the code.  The runtime puts at most two elements
   in a tick — a grant and the granted process's response, an
   invocation and (for an operation with no atomic step) its
   response, or a crash — and a code has room for three. *)
let slot_bits = 8

let max_elements = 3

let element p kind =
  if p > 31 then invalid_arg "Lasso.cell_code: process id above 31";
  ((p lsl 2) lor kind) + 1

let cell_code d events =
  let rec push code slot = function
    | [] -> code
    | e :: tl ->
        if slot >= max_elements then
          invalid_arg "Lasso.cell_code: more than 3 elements in a tick";
        let elt = element (Event.proc e) (event_kind e) in
        push (code lor (elt lsl (slot * slot_bits))) (slot + 1) tl
  in
  match d with
  | Driver.Schedule p -> push (element p 0) 1 events
  | _ -> push 0 0 events

let first_element = function
  | Driver.Schedule p -> element p 0
  | Driver.Invoke (p, _) -> element p 1
  | Driver.Crash p -> element p 3
  | Driver.Stop -> invalid_arg "Lasso.first_element: Stop"

let slot_mask = (1 lsl slot_bits) - 1

let rec same_prefix k xs ys =
  k = 0
  ||
  match (xs, ys) with
  | (x : int) :: xs, y :: ys -> x = y && same_prefix (k - 1) xs ys
  | _ -> false

let may_close ~max_period d rev_codes =
  let low = first_element d in
  (* Period [p] closes when the new code equals [c], the code [p] ticks
     back, and the [p - 1] codes newer than [c] repeat the [p - 1] older
     ones that start [rest]. *)
  let rec from p = function
    | [] -> false
    | c :: rest ->
        p <= max_period
        && ((c land slot_mask = low && same_prefix (p - 1) rev_codes rest)
           || from (p + 1) rest)
  in
  from 1 rev_codes

let window_period r =
  let cells = tick_cells r in
  let ws = Run_report.window_start r in
  let trace = List.concat (List.filteri (fun t _ -> t >= ws) cells) in
  trace_period ~equal:String.equal trace

let certified_violation ~good r point =
  Fairness.is_bounded_fair r
  && (not (Freedom.holds ~good r point))
  && Option.is_some (window_period r)

(* ------------------------------------------------------------------ *)
(* Replayable stem + cycle certificates.                               *)

type ('inv, 'res) cert = {
  c_n : int;
  c_stem : ('inv, 'res) Driver.decision list;
  c_cycle : ('inv, 'res) Driver.decision list;
}

let statuses cursor =
  let view = Runner.Cursor.view cursor in
  Array.of_list (List.map view.Driver.status (Proc.all ~n:view.Driver.n))

type failure = { reason : string; repetition : int option }

exception Pump_failed of failure

let fail ?repetition reason = raise (Pump_failed { reason; repetition })

(* Apply repetition [rep] of [cycle] to [cursor], checking each cycle
   invocation against the workload [invoke]. *)
let repeat ?invoke cursor rep cycle =
  List.iter
    (fun d ->
      (match (invoke, d) with
      | Some invoke, Driver.Invoke (p, inv)
        when invoke (Runner.Cursor.view cursor) p <> Some inv ->
          fail ~repetition:rep "workload diverged"
      | _ -> ());
      try Runner.Cursor.apply cursor d
      with Invalid_argument msg ->
        fail ~repetition:rep ("decision not applicable: " ^ msg))
    cycle

(* The pump proper, on a cursor at stem · cycle: the first repetition
   is the reference, so every later one must end with every process in
   the same status.  Its cells then repeat too (doc/model.md §7). *)
let pump_rest ?invoke ~repetitions cursor cert =
  let reference = statuses cursor in
  for rep = 2 to repetitions do
    repeat ?invoke cursor rep cert.c_cycle;
    if statuses cursor <> reference then
      fail ~repetition:rep
        (Printf.sprintf "configuration diverged on repetition %d" rep)
  done;
  Runner.Cursor.report cursor
    ~window:(repetitions * List.length cert.c_cycle)
    ()

let guarded ~repetitions cert pumped =
  if cert.c_cycle = [] then
    Error { reason = "Lasso.pump: empty cycle"; repetition = None }
  else if repetitions < 2 then
    Error
      { reason = "Lasso.pump: need at least 2 repetitions"; repetition = None }
  else try Ok (pumped ()) with Pump_failed f -> Error f

let pump_from cursor ?(repetitions = 2) ?invoke cert =
  guarded ~repetitions cert (fun () ->
      pump_rest ?invoke ~repetitions cursor cert)

let pump ~factory ?ticks ?(repetitions = 2) ?invoke cert =
  guarded ~repetitions cert (fun () ->
      (* The stem is replayed as the cursor's prefix: an
         [Invalid_argument] raised before the body runs is an
         inapplicable stem decision. *)
      let in_body = ref false in
      try
        Runner.Cursor.with_ ~n:cert.c_n ~factory ?ticks ~keyed:false
          ~prefix:cert.c_stem (fun cursor ->
            in_body := true;
            repeat ?invoke cursor 1 cert.c_cycle;
            pump_rest ?invoke ~repetitions cursor cert)
      with Invalid_argument msg when not !in_body ->
        fail ("decision not applicable: " ^ msg))
