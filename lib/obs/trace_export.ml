open Telemetry

type descriptor = {
  kind : kind;
  name : string;
  cat : string;
  ph : string;
  a : string;
  b : string option;
}

let d kind name cat ph a b = { kind; name; cat; ph; a; b }

let descriptors =
  [
    d Node_enter "node" "explore" "B" "depth" None;
    d Node_leave "node" "explore" "E" "depth" None;
    d Decision "decision" "explore" "i" "depth" (Some "decision");
    d Run_checked "run_checked" "explore" "i" "depth" None;
    d Cache_hit "cache_hit" "cache" "i" "depth" (Some "credited_runs");
    d Por_sleep "por_sleep" "reduce" "i" "depth" (Some "slept");
    d Race_reversal "race_reversal" "reduce" "i" "depth" (Some "woken");
    d Proviso_wake "proviso_wake" "reduce" "i" "depth" (Some "woken");
    d Invoke_prune "invoke_prune" "reduce" "i" "depth" (Some "pruned");
    d Symmetry_prune "symmetry_prune" "reduce" "i" "depth" (Some "pruned");
    d Cycle_candidate "cycle_candidate" "live" "i" "period"
      (Some "fair_violating");
    d Pump_start "pump" "live" "B" "period" None;
    d Pump_verdict "pump" "live" "E" "period" (Some "accepted");
  ]

let describe kind = List.find (fun d -> d.kind = kind) descriptors

(* A [Decision]'s code as the CLI witness scripts write it: the tag's
   letter (Schedule, Invoke, Crash), then the process. *)
let code_string code = Printf.sprintf "%c%d" "SIC?".[code land 3] (code lsr 2)

let code_of_string s =
  let letter = if s = "" then '?' else s.[0] in
  match String.index_opt "SIC" letter with
  | None -> None
  | Some tag -> (
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some p when p >= 0 -> Some ((p lsl 2) lor tag)
      | _ -> None)

(* One trace record, on slx's one lane (pid 1, tid 0).  [ts] is
   microseconds relative to the first event; Chrome accepts fractional
   microseconds. *)
let record buf ~name ~cat ~ph ~ts ~args =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": %.3f, \
        \"pid\": 1, \"tid\": 0" (Json.quote name) cat ph ts);
  if ph = "i" then Buffer.add_string buf ", \"s\": \"t\"";
  Buffer.add_string buf ", \"args\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) args));
  Buffer.add_string buf "}}"

let event_record buf ~t0 e =
  let d = describe e.ev_kind in
  let b =
    match d.b with
    | None -> []
    | Some k when e.ev_kind = Decision ->
        [ (k, Json.quote (code_string e.ev_b)) ]
    | Some k -> [ (k, string_of_int e.ev_b) ]
  in
  record buf ~name:d.name ~cat:d.cat ~ph:d.ph
    ~ts:(float_of_int (e.ev_ns - t0) /. 1e3)
    ~args:((d.a, string_of_int e.ev_a) :: b)

let to_string ?(name = "slx") ~events_dropped events =
  let buf = Buffer.create 4096 in
  let t0 = List.fold_left (fun acc e -> min acc e.ev_ns) max_int events in
  let metadata name value =
    record buf ~name ~cat:"__metadata" ~ph:"M" ~ts:0.
      ~args:[ ("name", Json.quote value) ]
  in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  metadata "process_name" name;
  if events <> [] then begin
    Buffer.add_string buf ",\n";
    metadata "thread_name" "domain 0"
  end;
  List.iter
    (fun e ->
      Buffer.add_string buf ",\n";
      event_record buf ~t0 e)
    events;
  Buffer.add_string buf
    (Printf.sprintf
       "\n], \"displayTimeUnit\": \"ns\", \"otherData\": \
        {\"events_dropped\": %d}}\n"
       events_dropped);
  Buffer.contents buf

let write oc ?name ~events_dropped events =
  output_string oc (to_string ?name ~events_dropped events)

(* ------------------------------------------------------------------ *)
(* Reading a trace back.                                               *)

type trace = { events : event list; events_dropped : int }

let read text =
  let ( let* ) = Result.bind in
  let* json = Json.parse text in
  let* records =
    match Json.member "traceEvents" json with
    | Some (Json.Arr rs) -> Ok rs
    | _ -> Error "no traceEvents array"
  in
  let* events_dropped =
    match
      Option.bind (Json.member "otherData" json) (fun o ->
          Option.bind (Json.member "events_dropped" o) Json.int)
    with
    | Some n -> Ok n
    | None -> Error "no otherData.events_dropped"
  in
  (* [spans]: the names of the open spans, innermost first. *)
  let rec go idx spans acc = function
    | [] ->
        if spans = [] then Ok { events = List.rev acc; events_dropped }
        else Error (Printf.sprintf "%d span(s) left open" (List.length spans))
    | r :: rest ->
        let fail fmt =
          Printf.ksprintf
            (fun m -> Error (Printf.sprintf "event %d: %s" idx m))
            fmt
        in
        let get conv k obj =
          match Option.bind (Json.member k obj) conv with
          | Some v -> Ok v
          | None -> fail "missing %s" k
        in
        let* name = get Json.str "name" r in
        let* ph = get Json.str "ph" r in
        let* ts = get Json.num "ts" r in
        let* pid = get Json.int "pid" r in
        let* tid = get Json.int "tid" r in
        if (pid, tid) <> (1, 0) then
          fail "pid %d, tid %d: slx writes pid 1, tid 0" pid tid
        else if ph = "M" then go (idx + 1) spans acc rest
        else begin
          match
            List.find_opt (fun d -> d.name = name && d.ph = ph) descriptors
          with
          | None -> fail "unknown event %S with phase %S" name ph
          | Some d ->
              let args =
                Option.value ~default:(Json.Obj []) (Json.member "args" r)
              in
              let* a = get Json.int d.a args in
              let* b =
                match d.b with
                | None -> Ok 0
                | Some k when d.kind = Decision -> (
                    let* s = get Json.str k args in
                    match code_of_string s with
                    | Some code -> Ok code
                    | None -> fail "bad decision %S" s)
                | Some k -> get Json.int k args
              in
              let* spans =
                match (ph, spans) with
                | "B", _ -> Ok (name :: spans)
                | "E", top :: outer when top = name -> Ok outer
                | "E", top :: _ ->
                    fail "span end %S closes open span %S" name top
                | "E", [] -> fail "span end %S with no open span" name
                | _ -> Ok spans
              in
              let ev_ns = int_of_float (Float.round (ts *. 1e3)) in
              go (idx + 1) spans
                ({ ev_ns; ev_kind = d.kind; ev_a = a; ev_b = b } :: acc)
                rest
        end
  in
  go 0 [] [] records
