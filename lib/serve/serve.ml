module Json = Slx_obs.Json
module Store = Slx_store.Store
module Persist = Slx_store.Persist

(* ------------------------------------------------------------------ *)
(* State.                                                              *)

type qstate = Running | Done of string | Failed of string | Timeout

type query = {
  q_id : int;
  q_spec : Queries.spec;
  q_slot : int * int * int * int;  (* [Queries.slot]: the dedup key *)
  q_created : float;
  mutable q_settled : float option;  (* when [settle] ended it *)
  mutable q_state : qstate;
  mutable q_source : string;
  q_deadline : float option;
  mutable q_waiters : Unix.file_descr list;
  mutable q_last_hb : string option;
}

(* A worker is idle ([w_query] is [None]) or running one query that is
   still running: a query's result frees its worker, and a deadline or
   an EOF replaces it, in the same slot, with a fresh record. *)
type worker = {
  w_idx : int;
  w_pid : int;
  w_in : Unix.file_descr;  (* coordinator -> worker: task lines *)
  w_out : Unix.file_descr;  (* worker -> coordinator: results *)
  w_acc : Buffer.t;  (* partial line from w_out *)
  mutable w_query : query option;
}

(* A connection whose request is not complete yet. *)
type client = { c_fd : Unix.file_descr; c_acc : Buffer.t; c_since : float }

type t = {
  store : Store.t;
  listen_fd : Unix.file_descr;
  workers : worker array;
  queries : (int, query) Hashtbl.t;  (* running, and the latest settled *)
  settled : int Queue.t;  (* the settled ones' ids, oldest first *)
  inflight : (int * int * int * int, query) Hashtbl.t;  (* by slot *)
  mutable pending : query list;  (* FIFO; re-leases go to the front *)
  mutable clients : client list;
  mutable next_query : int;
  mutable dedup_hits : int;
  mutable re_leases : int;
  mutable timeouts : int;
  mutable running : bool;  (* cleared by /shutdown, SIGINT and SIGTERM *)
}

(* ------------------------------------------------------------------ *)
(* Small IO helpers.                                                   *)

let close_quiet = Client.close_quiet

(* Streamed waiters can die mid-query; a failed write just drops the
   waiter rather than the coordinator. *)
let try_write fd s =
  match Client.write_all fd s with
  | () -> true
  | exception Unix.Unix_error _ -> false

let respond ?(status = "200 OK") fd body =
  let body = body ^ "\n" in
  ignore
    (try_write fd
       (Printf.sprintf
          "HTTP/1.1 %s\r\nContent-Type: application/json\r\n\
           Content-Length: %d\r\nConnection: close\r\n\r\n%s"
          status (String.length body) body));
  close_quiet fd

let stream_header fd =
  try_write fd
    "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
     Connection: close\r\n\r\n"

(* ------------------------------------------------------------------ *)
(* Workers.                                                            *)

let spawn_worker idx =
  let task_r, task_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  Unix.set_close_on_exec task_w;
  Unix.set_close_on_exec res_r;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "worker" |]
      task_r res_w Unix.stderr
  in
  Unix.close task_r;
  Unix.close res_w;
  {
    w_idx = idx;
    w_pid = pid;
    w_in = task_w;
    w_out = res_r;
    w_acc = Buffer.create 256;
    w_query = None;
  }

let rec reap pid =
  try ignore (Unix.waitpid [] pid) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | Unix.Unix_error _ -> ()

(* The one way a worker process ends, whether it is dead already,
   stopped, hung or busy: the kill makes the blocking reap return at
   once, and leaves no zombie. *)
let stop_worker w =
  close_quiet w.w_in;
  close_quiet w.w_out;
  (try Unix.kill w.w_pid Sys.sigkill
   with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  reap w.w_pid

let respawn_worker t w =
  stop_worker w;
  t.workers.(w.w_idx) <- spawn_worker w.w_idx

(* Hand pending queries to idle workers.  A failed write (a dead pipe)
   puts the query back; the EOF path respawns the worker. *)
let dispatch t =
  Array.iter
    (fun w ->
      match (w.w_query, t.pending) with
      | None, q :: rest -> (
          t.pending <- rest;
          let line =
            Printf.sprintf "{\"spec\": %s}\n" (Queries.spec_to_json q.q_spec)
          in
          match Client.write_all w.w_in line with
          | () -> w.w_query <- Some q
          | exception Unix.Unix_error _ -> t.pending <- q :: t.pending)
      | _ -> ())
    t.workers

(* A running query lost its task (its worker died): queue it again,
   first. *)
let re_lease t q =
  t.re_leases <- t.re_leases + 1;
  t.pending <- q :: t.pending

(* ------------------------------------------------------------------ *)
(* Query lifecycle.                                                    *)

let now () = Unix.gettimeofday ()

(* The one rendering of a query's state: every line a streamed waiter
   reads, and [/status].  A finished query's [elapsed_s] is its
   duration, fixed when it settled. *)
let status_json q =
  let state, extra =
    match q.q_state with
    | Running -> ("running", "")
    | Done r -> ("done", Printf.sprintf ", \"result\": %s" r)
    | Failed e -> ("failed", ", \"error\": " ^ Json.quote e)
    | Timeout -> ("timeout", "")
  in
  let hb =
    match q.q_last_hb with
    | Some h when q.q_state = Running ->
        Printf.sprintf ", \"heartbeat\": %s" h
    | _ -> ""
  in
  Printf.sprintf
    "{\"id\": %d, \"state\": %s, \"source\": %s, \"spec\": %s, \
     \"elapsed_s\": %.3f%s%s}"
    q.q_id (Json.quote state) (Json.quote q.q_source)
    (Queries.spec_to_json q.q_spec)
    (Option.value ~default:(now ()) q.q_settled -. q.q_created)
    extra hb

let max_settled = 1024

(* End a query: its final state and settle time, its slot free for a
   new query, the oldest settled query forgotten past [max_settled],
   and its status, its last line, to each streamed waiter. *)
let settle t q state =
  q.q_state <- state;
  q.q_settled <- Some (now ());
  Hashtbl.remove t.inflight q.q_slot;
  Queue.push q.q_id t.settled;
  if Queue.length t.settled > max_settled then
    Hashtbl.remove t.queries (Queue.pop t.settled);
  match q.q_waiters with
  | [] -> ()
  | waiters ->
      let line = status_json q ^ "\n" in
      List.iter
        (fun fd ->
          ignore (try_write fd line);
          close_quiet fd)
        waiters;
      q.q_waiters <- []

(* Plan a freshly created query through the store's policy: a warm
   answer, or one task that runs the whole tree.  A warm hit is not
   committed: its count reaches disk with the next save or at
   shutdown, and /stats reads the counters in memory. *)
let plan t q =
  let qid, depth, max_period, pump_ticks = q.q_slot in
  match
    Persist.warm t.store ~qid ~depth ~max_period ~pump_ticks
      (Queries.warm_result q.q_spec)
  with
  | Some result ->
      q.q_source <- "warm";
      settle t q (Done result)
  | None ->
      q.q_source <- "full";
      t.pending <- t.pending @ [ q ];
      dispatch t

(* Store the record the worker built for a computed query, if it is
   this query's own: decodes, and carries the query's qid, depth and
   budgets.  Anything else is answered but not stored. *)
let save_record t q record =
  match Option.map Store.record_of_string record with
  | Some (Ok r)
    when (r.Store.r_qid, r.Store.r_depth, r.Store.r_max_period,
          r.Store.r_pump_ticks)
         = q.q_slot ->
      Persist.save t.store r
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Worker lines.                                                       *)

(* The result of a running query's task. *)
let handle_result t q result_j ~record =
  let member k = Option.bind (Json.member k result_j) Json.str in
  match member "outcome" with
  | Some "error" ->
      let msg = Option.value ~default:"worker error" (member "message") in
      settle t q (Failed msg)
  | _ ->
      save_record t q record;
      settle t q (Done (Json.to_string result_j))

(* A line from a busy worker: its task's result line (it has a
   ["result"] member), which frees the worker, or a heartbeat. *)
let handle_worker_line t w line =
  match (Json.parse line, w.w_query) with
  | Ok j, Some q -> (
      match Json.member "result" j with
      | Some r ->
          w.w_query <- None;
          handle_result t q r
            ~record:(Option.bind (Json.member "record" j) Json.str);
          dispatch t
      | None ->
          q.q_last_hb <- Some line;
          let fwd = status_json q ^ "\n" in
          (* A waiter that hung up is closed as it is dropped. *)
          q.q_waiters <-
            List.filter
              (fun fd -> try_write fd fwd || (close_quiet fd; false))
              q.q_waiters)
  | _ -> ()

(* The worker died (crash or kill): re-lease its query and put a
   fresh process in its slot. *)
let handle_worker_eof t w =
  Option.iter (re_lease t) w.w_query;
  respawn_worker t w;
  dispatch t

(* ------------------------------------------------------------------ *)
(* HTTP.                                                               *)

let stats_json t =
  let c = Store.counters t.store in
  let h = Store.health t.store in
  let busy =
    Array.fold_left
      (fun acc w -> if Option.is_some w.w_query then acc + 1 else acc)
      0 t.workers
  in
  (* Each worker's peak resident set, read only now, when asked for:
     a long-lived worker that kept memory from earlier queries shows
     it here.  [null] where /proc is unavailable. *)
  let hwm =
    Array.to_list t.workers
    |> List.map (fun w ->
           match Slx_obs.Proc_status.kb ~pid:w.w_pid "VmHWM" with
           | Some kb -> string_of_int kb
           | None -> "null")
    |> String.concat ", "
  in
  Printf.sprintf
    "{\"queries\": %d, \"active\": %d, \"dedup_hits\": %d, \"re_leases\": \
     %d, \"timeouts\": %d, \"workers\": %d, \"workers_busy\": %d, \
     \"worker_hwm_kb\": [%s], \
     \"store\": {\"path\": %s, \"records\": %d, \"queries\": %d, \
     \"warm_hits\": %d, \"colds\": %d, \"rejected\": %d, \"refused\": %d, \
     \"created\": %b, \"invalidated\": %s, \
     \"records_dropped\": %d}}"
    (t.next_query - 1)
    (* The running queries are [inflight]'s: [settle] removes each. *)
    (Hashtbl.length t.inflight)
    t.dedup_hits t.re_leases t.timeouts (Array.length t.workers) busy hwm
    (Json.quote (Store.path t.store))
    (List.length (Store.records t.store))
    c.Store.c_queries c.Store.c_warm_hits c.Store.c_colds c.Store.c_rejected
    c.Store.c_refused
    h.Store.h_created
    (match h.Store.h_invalidated with
    | None -> "null"
    | Some r -> Json.quote r)
    h.Store.h_records_dropped

(* A query's deadline in seconds: absent, or a positive number. *)
let timeout_of j =
  match Json.member "timeout" j with
  | None -> Ok None
  | Some v -> (
      match Json.num v with
      | Some s when s > 0. -> Ok (Some s)
      | _ ->
          Error
            (Printf.sprintf "timeout %s is not a positive number of seconds"
               (Json.to_string v)))

let wait_of j =
  match Json.member "wait" j with
  | None -> Ok false
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error "wait must be a boolean"

let handle_query_post t fd body =
  let request =
    Result.bind (Json.parse body) @@ fun j ->
    Result.bind (Queries.spec_of_json j) @@ fun spec ->
    Result.bind (timeout_of j) @@ fun timeout ->
    Result.map (fun wait -> (spec, timeout, wait)) (wait_of j)
  in
  match request with
  | Error e -> respond ~status:"400 Bad Request" fd (Queries.error_result e)
  | Ok (spec, timeout, wait) -> (
      let slot = Queries.slot spec in
      let attach q deduped =
        if wait then begin
          if stream_header fd then begin
            match q.q_state with
            | Done _ | Failed _ | Timeout ->
                ignore (try_write fd (status_json q ^ "\n"));
                close_quiet fd
            | _ -> q.q_waiters <- fd :: q.q_waiters
          end
          else close_quiet fd
        end
        else
          respond ~status:"202 Accepted" fd
            (Printf.sprintf "{\"id\": %d, \"deduped\": %b}" q.q_id
               deduped)
      in
      match Hashtbl.find_opt t.inflight slot with
      | Some q ->
          t.dedup_hits <- t.dedup_hits + 1;
          attach q true
      | None ->
          let q =
            {
              q_id = t.next_query;
              q_spec = spec;
              q_slot = slot;
              q_created = now ();
              q_settled = None;
              q_state = Running;
              q_source = "";
              q_deadline = Option.map (fun s -> now () +. s) timeout;
              q_waiters = [];
              q_last_hb = None;
            }
          in
          t.next_query <- t.next_query + 1;
          Hashtbl.replace t.queries q.q_id q;
          Hashtbl.replace t.inflight slot q;
          plan t q;
          attach q false)

let handle_request t fd ~meth ~path ~body =
  match (meth, path) with
  | "POST", "/query" -> handle_query_post t fd body
  | "GET", p when String.length p > 8 && String.sub p 0 8 = "/status/" -> begin
      match int_of_string_opt (String.sub p 8 (String.length p - 8)) with
      | Some id -> begin
          match Hashtbl.find_opt t.queries id with
          | Some q -> respond fd (status_json q)
          | None ->
              respond ~status:"404 Not Found" fd
                (Printf.sprintf "{\"error\": \"no query %d\"}" id)
        end
      | None -> respond ~status:"400 Bad Request" fd "{\"error\": \"bad id\"}"
    end
  | "BAD", _ ->
      respond ~status:"400 Bad Request" fd "{\"error\": \"bad request\"}"
  | "GET", "/stats" -> respond fd (stats_json t)
  | "POST", "/shutdown" ->
      respond fd "{\"ok\": true}";
      t.running <- false
  | _ ->
      respond ~status:"404 Not Found" fd
        (Printf.sprintf "{\"error\": %s}"
           (Json.quote (Printf.sprintf "no route %s %s" meth path)))

let max_request = 65536

(* Cut one complete HTTP request out of a client's bytes: [None] while
   it is unfinished, ["BAD"] when it is malformed or longer than
   [max_request]. *)
let try_parse_request data =
  let bad = Some ("BAD", "/", "") in
  match Client.body_start data with
  | None -> if String.length data > max_request then bad else None
  | Some body_start -> (
      let head = String.sub data 0 (body_start - 4) in
      match List.map String.trim (String.split_on_char '\n' head) with
      | [] -> bad
      | req :: headers -> (
          (* [None]: a Content-Length that is not a length. *)
          let content_length =
            List.fold_left
              (fun acc h ->
                match String.index_opt h ':' with
                | Some i
                  when String.lowercase_ascii (String.sub h 0 i)
                       = "content-length" -> (
                    match
                      int_of_string_opt
                        (String.trim
                           (String.sub h (i + 1) (String.length h - i - 1)))
                    with
                    | Some len when len >= 0 -> Some len
                    | _ -> None)
                | _ -> acc)
              (Some 0) headers
          in
          match (content_length, String.split_on_char ' ' req) with
          | Some len, meth :: path :: _ when len <= max_request - body_start ->
              if String.length data >= body_start + len then
                Some (meth, path, String.sub data body_start len)
              else None
          | _ -> bad))

(* ------------------------------------------------------------------ *)
(* Main loop.                                                          *)

let chunk = Bytes.create 65536

(* Handle each complete line a worker has sent. *)
let read_worker t w =
  match Unix.read w.w_out chunk 0 (Bytes.length chunk) with
  | 0 -> handle_worker_eof t w
  | exception Unix.Unix_error _ -> handle_worker_eof t w
  | n ->
      Buffer.add_subbytes w.w_acc chunk 0 n;
      let rec go = function
        | [] -> ()
        | [ last ] ->
            Buffer.clear w.w_acc;
            Buffer.add_string w.w_acc last
        | line :: rest ->
            if String.trim line <> "" then handle_worker_line t w line;
            go rest
      in
      go (String.split_on_char '\n' (Buffer.contents w.w_acc))

let forget t c = t.clients <- List.filter (fun c' -> c' != c) t.clients

let drop_client t c =
  forget t c;
  close_quiet c.c_fd

(* Read a client's request; once it is complete, the fd's fate belongs
   to the handler (respond closes it; a waiter keeps it). *)
let read_client t c =
  match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
  | 0 | (exception Unix.Unix_error _) -> drop_client t c
  | n -> (
      Buffer.add_subbytes c.c_acc chunk 0 n;
      match try_parse_request (Buffer.contents c.c_acc) with
      | Some (meth, path, body) ->
          forget t c;
          handle_request t c.c_fd ~meth ~path ~body
      | None -> ())

(* The client-side fds, unfinished readers plus streamed waiters, stay
   at most this many, so that with stdio, the listener and the two
   pipes of each of at most 64 workers every fd the loop selects on is
   below FD_SETSIZE (1024). *)
let max_clients = 768

(* A reader whose request is still unfinished this long (seconds)
   after it connected is closed. *)
let read_deadline = 10.

(* Take every pending connection (the listener is non-blocking).  At
   [max_clients] the oldest unfinished reader makes room for each;
   when every client-side fd is a streamed waiter, the newcomer is
   closed instead. *)
let accept_clients t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      (* Only a running query holds waiters ([settle] clears them). *)
      let waiters =
        Hashtbl.fold (fun _ q n -> n + List.length q.q_waiters) t.inflight 0
      in
      let add () =
        t.clients <-
          { c_fd = fd; c_acc = Buffer.create 256; c_since = now () }
          :: t.clients
      in
      if List.length t.clients + waiters < max_clients then add ()
      else
        (match List.rev t.clients with
        | oldest :: _ ->
            drop_client t oldest;
            add ()
        | [] -> close_quiet fd)

(* The longest [select] waits, so that a signal that lands just
   before it is still noticed this soon. *)
let max_wait = 0.25

(* The one clock.  Every query past its deadline is taken off the
   queue and settles as [timeout], and then its worker, if it has one,
   is replaced; every reader past [read_deadline] is closed.
   The result is how long [select] may wait: until the next deadline,
   at most [max_wait].  Only a running query can expire, and the
   running ones are [inflight]'s; the expired are collected first
   because [settle] removes from it. *)
let expire t =
  let now = now () in
  let next = ref (now +. max_wait) in
  let expired =
    Hashtbl.fold
      (fun _ q acc ->
        match q.q_deadline with
        | Some dl when dl <= now -> q :: acc
        | Some dl ->
            next := Float.min !next dl;
            acc
        | None -> acc)
      t.inflight []
  in
  List.iter
    (fun q ->
      t.timeouts <- t.timeouts + 1;
      t.pending <- List.filter (fun p -> p != q) t.pending;
      settle t q Timeout;
      Array.iter
        (fun w ->
          match w.w_query with
          | Some wq when wq == q -> respawn_worker t w
          | _ -> ())
        t.workers)
    expired;
  if expired <> [] then dispatch t;
  List.iter
    (fun c ->
      let dl = c.c_since +. read_deadline in
      if dl <= now then drop_client t c else next := Float.min !next dl)
    t.clients;
  Float.max 0. (!next -. now)

let main ?(host = "127.0.0.1") ~port ~workers ~store () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store = Store.open_ store in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  (* A burst of connections waits in the kernel's queue instead of
     retrying its handshake a second later. *)
  Unix.listen listen_fd 1024;
  let t =
    {
      store;
      listen_fd;
      workers = Array.init workers spawn_worker;
      queries = Hashtbl.create 32;
      settled = Queue.create ();
      inflight = Hashtbl.create 32;
      pending = [];
      clients = [];
      next_query = 1;
      dedup_hits = 0;
      re_leases = 0;
      timeouts = 0;
      running = true;
    }
  in
  let on_term _ = t.running <- false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_term);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_term);
  Printf.printf "{\"serving\": \"%s:%d\", \"workers\": %d, \"store\": %s}\n%!"
    host port workers
    (Json.quote (Store.path t.store));
  while t.running do
    let wait = expire t in
    let fds =
      t.listen_fd
      :: Array.fold_right
           (fun w fds -> w.w_out :: fds)
           t.workers
           (List.map (fun c -> c.c_fd) t.clients)
    in
    match Unix.select fds [] [] wait with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then accept_clients t
            else
              match Array.find_opt (fun w -> w.w_out = fd) t.workers with
              | Some w -> read_worker t w
              | None ->
                  Option.iter (read_client t)
                    (List.find_opt (fun c -> c.c_fd = fd) t.clients))
          ready
  done;
  (* Nothing reads a worker's result after the loop: stop each one,
     idle or not, and flush the store. *)
  Array.iter stop_worker t.workers;
  Store.commit t.store;
  close_quiet t.listen_fd;
  0
