open Telemetry

(* One trace record.  [ts] is microseconds relative to the first
   event; Chrome accepts fractional microseconds. *)
let record buf ~name ~cat ~ph ~ts ~tid ~args () =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": %.3f, \
        \"pid\": 1, \"tid\": %d" (Json.quote name) cat ph ts tid);
  if ph = "i" then Buffer.add_string buf ", \"s\": \"t\"";
  if args <> [] then begin
    Buffer.add_string buf ", \"args\": {";
    Buffer.add_string buf
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) args));
    Buffer.add_string buf "}"
  end;
  Buffer.add_string buf "}"

let event_record buf ~t0 e =
  let ts = float_of_int (e.ev_ns - t0) /. 1e3 in
  let tid = e.ev_domain in
  let i = string_of_int in
  match e.ev_kind with
  | Node_enter ->
      record buf ~name:"node" ~cat:"explore" ~ph:"B" ~ts ~tid
        ~args:[ ("depth", i e.ev_a) ] ()
  | Node_leave ->
      record buf ~name:"node" ~cat:"explore" ~ph:"E" ~ts ~tid
        ~args:[ ("depth", i e.ev_a) ] ()
  | Pump_start ->
      record buf ~name:"pump" ~cat:"live" ~ph:"B" ~ts ~tid
        ~args:[ ("period", i e.ev_a) ] ()
  | Pump_verdict ->
      record buf ~name:"pump" ~cat:"live" ~ph:"E" ~ts ~tid
        ~args:[ ("period", i e.ev_a); ("accepted", i e.ev_b) ] ()
  | Decision ->
      record buf ~name:"decision" ~cat:"explore" ~ph:"i" ~ts ~tid
        ~args:
          [ ("depth", i e.ev_a);
            ("decision", Printf.sprintf "\"%s\"" (Dec.pp e.ev_b)) ]
        ()
  | Run_checked ->
      record buf ~name:"run_checked" ~cat:"explore" ~ph:"i" ~ts ~tid
        ~args:[ ("depth", i e.ev_a) ] ()
  | Cache_hit ->
      record buf ~name:"cache_hit" ~cat:"cache" ~ph:"i" ~ts ~tid
        ~args:[ ("depth", i e.ev_a); ("credited_runs", i e.ev_b) ] ()
  | Por_sleep ->
      record buf ~name:"por_sleep" ~cat:"reduce" ~ph:"i" ~ts ~tid
        ~args:[ ("depth", i e.ev_a); ("slept", i e.ev_b) ] ()
  | Race_reversal ->
      record buf ~name:"race_reversal" ~cat:"reduce" ~ph:"i" ~ts ~tid
        ~args:[ ("depth", i e.ev_a); ("woken", i e.ev_b) ] ()
  | Proviso_wake ->
      record buf ~name:"proviso_wake" ~cat:"reduce" ~ph:"i" ~ts ~tid
        ~args:[ ("depth", i e.ev_a); ("woken", i e.ev_b) ] ()
  | Invoke_prune ->
      record buf ~name:"invoke_prune" ~cat:"reduce" ~ph:"i" ~ts ~tid
        ~args:[ ("depth", i e.ev_a); ("pruned", i e.ev_b) ] ()
  | Symmetry_prune ->
      record buf ~name:"symmetry_prune" ~cat:"reduce" ~ph:"i" ~ts ~tid
        ~args:[ ("depth", i e.ev_a); ("pruned", i e.ev_b) ] ()
  | Cycle_candidate ->
      record buf ~name:"cycle_candidate" ~cat:"live" ~ph:"i" ~ts ~tid
        ~args:[ ("period", i e.ev_a); ("fair_violating", i e.ev_b) ] ()

let to_buffer ?(name = "slx") ~events_dropped events buf =
  let t0 =
    List.fold_left (fun acc e -> min acc e.ev_ns) max_int events
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let lanes =
    List.sort_uniq compare (List.map (fun e -> e.ev_domain) events)
  in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  sep ();
  record buf ~name:"process_name" ~cat:"__metadata" ~ph:"M" ~ts:0. ~tid:0
    ~args:[ ("name", Json.quote name) ]
    ();
  List.iter
    (fun d ->
      sep ();
      record buf ~name:"thread_name" ~cat:"__metadata" ~ph:"M" ~ts:0. ~tid:d
        ~args:[ ("name", Printf.sprintf "\"domain %d\"" d) ]
        ())
    lanes;
  List.iter
    (fun e ->
      sep ();
      event_record buf ~t0 e)
    events;
  Buffer.add_string buf
    (Printf.sprintf
       "\n], \"displayTimeUnit\": \"ns\", \"otherData\": \
        {\"events_dropped\": %d}}\n"
       events_dropped)

let to_string ?name ~events_dropped events =
  let buf = Buffer.create 4096 in
  to_buffer ?name ~events_dropped events buf;
  Buffer.contents buf

let write oc ?name ~events_dropped events =
  let buf = Buffer.create 4096 in
  to_buffer ?name ~events_dropped events buf;
  Buffer.output_buffer oc buf

(* ------------------------------------------------------------------ *)
(* Validation.                                                         *)

type summary = {
  sm_events : int;
  sm_spans : (string * int) list;
  sm_instants : (string * int) list;
  sm_lanes : int;
  sm_dropped : int;
}

let span_count sm name =
  Option.value ~default:0 (List.assoc_opt name sm.sm_spans)

let instant_count sm name =
  Option.value ~default:0 (List.assoc_opt name sm.sm_instants)

let bump table key =
  Hashtbl.replace table key
    (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let validate json =
  let ( let* ) r f = Result.bind r f in
  let* events =
    match Json.member "traceEvents" json with
    | Some (Json.Arr es) -> Ok es
    | _ -> Error "no traceEvents array"
  in
  let dropped =
    Option.value ~default:0
      (Option.bind (Json.member "otherData" json) (fun o ->
           Option.bind (Json.member "events_dropped" o) Json.int))
  in
  let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack lane =
    match Hashtbl.find_opt stacks lane with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks lane s;
        s
  in
  let spans = Hashtbl.create 8 and instants = Hashtbl.create 8 in
  let count = ref 0 in
  let step idx e =
    let field k conv what =
      match Option.bind (Json.member k e) conv with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "event %d: missing %s" idx what)
    in
    let* name = field "name" Json.str "name" in
    let* ph = field "ph" Json.str "ph" in
    let* _ts = field "ts" Json.num "ts" in
    let* pid = field "pid" Json.int "pid" in
    let* tid = field "tid" Json.int "tid" in
    if ph = "M" then Ok ()
    else begin
      incr count;
      let lane = stack (pid, tid) in
      match ph with
      | "B" ->
          lane := name :: !lane;
          Ok ()
      | "E" -> begin
          match !lane with
          | top :: rest when top = name ->
              lane := rest;
              bump spans name;
              Ok ()
          | top :: _ ->
              Error
                (Printf.sprintf
                   "event %d: span end %S closes open span %S (tid %d)" idx
                   name top tid)
          | [] ->
              Error
                (Printf.sprintf "event %d: span end %S with no open span" idx
                   name)
        end
      | "i" ->
          bump instants name;
          Ok ()
      | other -> Error (Printf.sprintf "event %d: unknown phase %S" idx other)
    end
  in
  let* () =
    List.fold_left
      (fun acc (idx, e) -> Result.bind acc (fun () -> step idx e))
      (Ok ())
      (List.mapi (fun i e -> (i, e)) events)
  in
  let* () =
    Hashtbl.fold
      (fun (_, tid) lane acc ->
        Result.bind acc (fun () ->
            if !lane = [] then Ok ()
            else
              Error
                (Printf.sprintf "%d span(s) left open on tid %d"
                   (List.length !lane) tid)))
      stacks (Ok ())
  in
  let assoc table =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
  in
  Ok
    {
      sm_events = !count;
      sm_spans = assoc spans;
      sm_instants = assoc instants;
      sm_lanes = Hashtbl.length stacks;
      sm_dropped = dropped;
    }
