(* serve-session: `slx serve --workers 2` on a fresh store, driven by a
   closed loop of two clients multiplexed with Unix.select from this
   single thread. *)

module Json = Slx_obs.Json
module Store = Slx_store.Store
module W = Workloads

(* ------------------------------------------------------------------ *)
(* HTTP.                                                               *)

let request ~meth ~path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: slx\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    meth path (String.length body) body

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)

let send fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* The body of a close-delimited response, or [None] without a 200. *)
let body_of response =
  let ok =
    String.length response >= 12 && String.sub response 9 3 = "200"
  in
  match Cli_workload.find_sub response "\r\n\r\n" with
  | Some i when ok -> Some (String.sub response i (String.length response - i))
  | _ -> None

(* A blocking round trip, for /stats and /shutdown. *)
let http ~port ~meth ~path =
  match connect port with
  | Error e -> Error e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match send fd (request ~meth ~path "") with
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | () -> (
              let buf = Buffer.create 1024 and chunk = Bytes.create 65536 in
              let deadline = Os.now_s () +. 10. in
              let rec read () =
                match Unix.select [ fd ] [] [] (Float.max 0. (deadline -. Os.now_s ())) with
                | [], _, _ -> Error "no response"
                | _ -> (
                    match Unix.read fd chunk 0 (Bytes.length chunk) with
                    | 0 -> Ok (Buffer.contents buf)
                    | k ->
                        Buffer.add_subbytes buf chunk 0 k;
                        read ())
                | exception Unix.Unix_error (e, _, _) ->
                    Error (Unix.error_message e)
              in
              match read () with
              | Error e -> Error e
              | Ok resp -> (
                  match Option.map String.trim (body_of resp) with
                  | Some body -> Ok body
                  | None -> Error ("bad response: " ^ resp))))

let stats ~port =
  match http ~port ~meth:"GET" ~path:"/stats" with
  | Error e -> Error e
  | Ok body -> Json.parse body

let int_of j path =
  let rec go j = function
    | [] -> Json.int j
    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
  in
  Option.value ~default:0 (go j path)

(* ------------------------------------------------------------------ *)
(* The server.                                                         *)

type server = { pid : int; port : int; out : Unix.file_descr }

(* Start a coordinator and wait until /stats answers with both workers
   spawned.  The coordinator prints one line once it listens. *)
let start ~store =
  let port = Os.free_port () in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Os.now_s () in
  let pid =
    Unix.create_process Os.slx_bin
      [| Os.slx_bin; "serve"; "--port"; string_of_int port; "--workers"; "2";
         "--store"; store |]
      (Lazy.force Os.dev_null) w Unix.stderr
  in
  Unix.close w;
  let srv = { pid; port; out = r } in
  let deadline = t0 +. 30. in
  let chunk = Bytes.create 256 in
  let rec first_line () =
    match Unix.select [ r ] [] [] (Float.max 0. (deadline -. Os.now_s ())) with
    | [], _, _ -> false
    | _ -> (
        match Unix.read r chunk 0 (Bytes.length chunk) with
        | 0 -> false
        | k -> Bytes.contains (Bytes.sub chunk 0 k) '\n' || first_line ())
  in
  let rec ready () =
    match stats ~port with
    | Ok j when int_of j [ "workers" ] = 2 -> true
    | _ when Os.now_s () < deadline ->
        Unix.sleepf 0.001;
        ready ()
    | _ -> false
  in
  if first_line () && ready () then Ok srv
  else Error (srv, "slx serve did not come up")

(* Ask the coordinator to drain, then reap it: (exit, peak RSS KiB). *)
let stop srv =
  ignore (http ~port:srv.port ~meth:"POST" ~path:"/shutdown");
  let res = Os.reap ~timeout_s:20. srv.pid in
  Unix.close srv.out;
  Os.reap_orphans ~timeout_s:5.;
  res

(* ------------------------------------------------------------------ *)
(* The session.                                                        *)

type answer = {
  latency_ms : float;
  source : string;
  server_ms : float;  (** The served [elapsed_s]. *)
  size : int;  (** Bytes of the final response line. *)
  verdict : string;  (** Outcome plus runs/witness/stem/cycle. *)
}

(* The comparable part of a result: everything a warm, resumed or
   deduped answer must reproduce. *)
let verdict_of result =
  let field k =
    match Json.member k result with
    | None -> ""
    | Some v -> (
        match v with
        | Json.Arr xs ->
            String.concat " " (List.map (fun x -> string_of_int (Option.value ~default:0 (Json.int x))) xs)
        | v -> Option.fold ~none:"" ~some:string_of_int (Json.int v))
  in
  let outcome =
    Option.value ~default:"" (Option.bind (Json.member "outcome" result) Json.str)
  in
  ( outcome,
    match outcome with
    | "ok" | "no_fair_cycle" -> Printf.sprintf "%s runs=%s" outcome (field "runs")
    | "counterexample" -> Printf.sprintf "%s witness=%s" outcome (field "witness")
    | "lasso" ->
        Printf.sprintf "%s stem=%s cycle=%s" outcome (field "stem") (field "cycle")
    | o -> o )

(* Parse a finished exchange into an answer, or say what went wrong. *)
let parse_answer (spec : Spec.t) ~latency_ms response =
  match body_of response with
  | None -> Error "no 200 response"
  | Some body -> (
      let lines =
        List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body)
      in
      match List.rev lines with
      | [] -> Error "empty response"
      | last :: _ -> (
          match Json.parse last with
          | Error e -> Error ("unparsable response: " ^ e)
          | Ok j -> (
              let str k = Option.bind (Json.member k j) Json.str in
              match (str "state", Json.member "result" j) with
              | Some "done", Some result ->
                  let outcome, verdict = verdict_of result in
                  let expected = Spec.expected spec in
                  if outcome <> expected then
                    Error (Printf.sprintf "verdict %s, expected %s" verdict expected)
                  else
                    Ok
                      {
                        latency_ms;
                        source = Option.value ~default:"" (str "source");
                        server_ms =
                          1000.
                          *. Option.value ~default:0.
                               (Option.bind (Json.member "elapsed_s" j) Json.num);
                        size = String.length last;
                        verdict;
                      }
              | state, _ ->
                  Error ("state " ^ Option.value ~default:"?" state))))

type inflight = {
  item : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  t0 : float;
}

(* Run the session against [srv]; returns every answer with its item,
   and adds failures to [ctx]. *)
let session ctx srv (items : W.item array) =
  let nitems = Array.length items in
  let finished = Array.make nitems false in
  let answers = ref [] in
  let busy = ref [] in
  let chunk = Bytes.create 65536 in
  let complete item t0 result =
    finished.(item) <- true;
    let spec = items.(item).W.spec in
    let latency_s = Os.now_s () -. t0 in
    let failed e =
      Run_ctx.answered ctx ~latency_s (Some (Spec.to_string spec ^ ": " ^ e))
    in
    match result with
    | Ok response -> (
        match parse_answer spec ~latency_ms:(1000. *. latency_s) response with
        | Ok a ->
            answers := (item, a) :: !answers;
            Run_ctx.answered ctx ~latency_s None
        | Error e -> failed e)
    | Error e -> failed e
  in
  let submit i =
    let body =
      let j = Spec.serve_json items.(i).W.spec in
      String.sub j 0 (String.length j - 1)
      ^ Printf.sprintf ", \"wait\": true, \"timeout\": %g}" Run_ctx.query_timeout_s
    in
    let t0 = Os.now_s () in
    match connect srv.port with
    | Error e -> complete i t0 (Error e)
    | Ok fd -> (
        match send fd (request ~meth:"POST" ~path:"/query" body) with
        | () -> busy := { item = i; fd; buf = Buffer.create 1024; t0 } :: !busy
        | exception Unix.Unix_error (e, _, _) ->
            Unix.close fd;
            complete i t0 (Error (Unix.error_message e)))
  in
  let next = ref 0 in
  let rec loop () =
    (* Fill free client slots in list order; a repeat or a deepening
       waits for the answer it depends on, a dedup pair waits for both
       clients to be free. *)
    let rec fill () =
      if !next < nitems && List.length !busy < 2 then
        if Run_ctx.out_of_time ctx then begin
          let rest = Array.sub items !next (nitems - !next) in
          Run_ctx.skipped ctx
            ~count:(Array.fold_left (fun a it -> a + W.submissions it) 0 rest)
            "run budget exhausted";
          next := nitems
        end
        else
          let it = items.(!next) in
          match it.W.role with
          | (W.Warm d | W.Resume d) when not finished.(d) -> ()
          | W.Dedup when !busy <> [] -> ()
          | W.Dedup ->
              submit !next;
              submit !next;
              incr next
          | _ ->
              submit !next;
              incr next;
              fill ()
    in
    fill ();
    if !busy <> [] then begin
      let now = Os.now_s () in
      let timeout =
        List.fold_left
          (fun acc fl -> Float.min acc (fl.t0 +. Run_ctx.query_timeout_s -. now))
          1. !busy
      in
      (match Unix.select (List.map (fun fl -> fl.fd) !busy) [] [] (Float.max 0. timeout) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun fl ->
              let close result =
                Unix.close fl.fd;
                busy := List.filter (fun f -> f != fl) !busy;
                complete fl.item fl.t0 result
              in
              if List.mem fl.fd ready then
                match Unix.read fl.fd chunk 0 (Bytes.length chunk) with
                | 0 -> close (Ok (Buffer.contents fl.buf))
                | k -> Buffer.add_subbytes fl.buf chunk 0 k
                | exception Unix.Unix_error (e, _, _) ->
                    close (Error (Unix.error_message e))
              else if Os.now_s () -. fl.t0 > Run_ctx.query_timeout_s then
                close (Error "client timeout"))
            !busy);
      loop ()
    end
    else if !next < nitems then loop ()
  in
  loop ();
  List.rev !answers

(* Every answer for a spec, in any session, must equal the first one;
   a resumed answer must also equal a cold in-process computation. *)
let consistency ctx (items : W.item array) answers =
  let first = Hashtbl.create 64 in
  List.iter
    (fun (i, a) ->
      let key = Spec.to_string items.(i).W.spec in
      match Hashtbl.find_opt first key with
      | None -> Hashtbl.add first key a.verdict
      | Some v when v = a.verdict -> ()
      | Some v ->
          Run_ctx.note ctx
            (Printf.sprintf "%s: %s answer %s differs from first %s" key a.source
               a.verdict v))
    answers;
  let checked = Hashtbl.create 64 in
  List.iter
    (fun (i, a) ->
      let spec = items.(i).W.spec in
      if a.source = "resumed" && not (Hashtbl.mem checked spec) then
        let () = Hashtbl.add checked spec () in
        match
          Result.bind
            (Json.parse (Spec.serve_json spec))
            Slx_serve.Queries.spec_of_json
        with
        | Error e -> Run_ctx.note ctx e
        | Ok sp -> (
            match Json.parse (Slx_serve.Queries.run_task sp Slx_serve.Queries.Full) with
            | Ok cold when snd (verdict_of cold) = a.verdict -> ()
            | Ok cold ->
                Run_ctx.note ctx
                  (Printf.sprintf "%s: resumed %s, cold %s" (Spec.to_string spec)
                     a.verdict (snd (verdict_of cold)))
            | Error e -> Run_ctx.note ctx e))
    answers

(* [Store.open_] and [Store.commit] on the final store: the median of
   five, the commits on a scratch copy. *)
let store_timings path =
  let copy = path ^ ".copy" in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin copy (fun oc -> Out_channel.output_string oc bytes);
  let time f =
    Stat.median
      (List.init 5 (fun _ ->
           let t0 = Os.now_s () in
           f ();
           Os.now_s () -. t0))
  in
  let open_s = time (fun () -> ignore (Store.open_ path)) in
  let st = Store.open_ copy in
  let commit_s = time (fun () -> Store.commit st) in
  (open_s, commit_s)

let layer_metrics ctx answers stats_json ~store =
  let l = ctx.Run_ctx.layers in
  let ms f = List.map f answers in
  let warm, computed = List.partition (fun a -> a.source = "warm") answers in
  let lat xs = List.map (fun a -> a.latency_ms) xs in
  Metrics.set l "serve.warm_p50_ms" (Stat.quantile (lat warm) 0.5);
  Metrics.set l "serve.warm_p90_ms" (Stat.quantile (lat warm) 0.9);
  Metrics.set l "serve.computed_p50_ms" (Stat.quantile (lat computed) 0.5);
  Metrics.set l "serve.overhead_p50_ms"
    (Stat.quantile (ms (fun a -> a.latency_ms -. a.server_ms)) 0.5);
  Metrics.set l "serve.response_kb_p50"
    (Stat.quantile (ms (fun a -> float_of_int a.size /. 1024.)) 0.5);
  Metrics.set l "serve.split_share"
    (if computed = [] then 0.
     else
       float_of_int (List.length (List.filter (fun a -> a.source = "split") computed))
       /. float_of_int (List.length computed));
  let sj path = float_of_int (int_of stats_json path) in
  Metrics.set l "serve.dedup_hits" (sj [ "dedup_hits" ]);
  Metrics.set l "serve.re_leases" (sj [ "re_leases" ]);
  Metrics.set l "serve.timeouts" (sj [ "timeouts" ]);
  Metrics.set l "store.records" (sj [ "store"; "records" ]);
  Metrics.set l "store.warm" (sj [ "store"; "warm_hits" ]);
  Metrics.set l "store.resumed" (sj [ "store"; "resumes" ]);
  Metrics.set l "store.cold" (sj [ "store"; "colds" ]);
  Metrics.set l "store.rejected" (sj [ "store"; "rejected" ]);
  Metrics.set l "store.steps_saved" (sj [ "store"; "steps_saved" ]);
  Metrics.set l "store.bytes" (float_of_int (Os.file_size store));
  let open_s, commit_s = store_timings store in
  Metrics.set l "store.open_s" open_s;
  Metrics.set l "store.commit_s" commit_s

(* How each kind of request was served, e.g. whether deepened specs
   really resumed (stderr, traced runs). *)
let pp_sources (items : W.item array) answers =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, a) ->
      let it = items.(i) in
      let key =
        Printf.sprintf "%-6s %-7s %-8s -> %s"
          (match it.W.role with
          | W.Cold -> "cold"
          | W.Warm _ -> "warm"
          | W.Resume _ -> "resume"
          | W.Dedup -> "dedup")
          (match it.W.spec.Spec.kind with Spec.Explore -> "explore" | Spec.Live -> "live")
          it.W.spec.Spec.impl a.source
      in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    answers;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.eprintf "  served: %s x%d\n" k v)

(* The timed run repeats the session (fresh server, fresh store) once per
   pass.  Every request of every session is a latency sample; the wall
   time is the median session's and the peak RSS the largest session's.
   Every server start is a set-up sample, with [extra_starts] extra
   starts (each stopped at once) before each session, so that the
   median start is not one session's luck.  The host-speed samples are
   taken on every processor while no server runs, before the starts and
   after the stop, so that they neither disturb a session nor are
   disturbed by one. *)
let extra_starts = 3

let run ctx (items : W.item list) =
  let items = Array.of_list items in
  let dir = Os.scratch_dir () in
  let peak_kb = ref 0 and answers = ref [] in
  let up name =
    let store = Filename.concat dir name in
    match Run_ctx.setup ctx (fun () -> start ~store) with
    | Error (srv, e) ->
        ignore (stop srv);
        Error e
    | Ok srv -> Ok (srv, store)
  in
  let session_once k =
    Run_ctx.sample_everywhere ctx;
    for x = 1 to extra_starts do
      match up (Printf.sprintf "extra%d-%d.store" k x) with
      | Ok (srv, _) -> ignore (stop srv)
      | Error e -> Run_ctx.note ctx e
    done;
    match up (Printf.sprintf "session%d.store" k) with
    | Error e ->
        Run_ctx.skipped ctx
          ~count:(Array.fold_left (fun a it -> a + W.submissions it) 0 items)
          e
    | Ok (srv, store) -> (
        let got = Run_ctx.pass_wall ctx (fun () -> session ctx srv items) in
        let stats_json = stats ~port:srv.port in
        let _exit, kb = stop srv in
        Run_ctx.sample_everywhere ctx;
        peak_kb := max !peak_kb kb;
        answers := !answers @ got;
        match stats_json with
        | Ok j when ctx.Run_ctx.traced ->
            pp_sources items got;
            layer_metrics ctx (List.map snd got) j ~store
        | Ok _ -> ()
        | Error e -> Run_ctx.note ctx ("GET /stats: " ^ e))
  in
  Fun.protect
    ~finally:(fun () -> Os.rm_rf dir)
    (fun () ->
      for k = 1 to ctx.Run_ctx.passes do
        session_once k
      done;
      consistency ctx items !answers;
      Run_ctx.result ctx ~peak_rss_kb:!peak_kb)
