(* The serve subsystem's suite.

   - The differential contract that lets every computed query be one
     task: resuming a whole stored frontier ([Queries.Resume]) gives
     the same outcome, runs, digest, witness/stem/cycle and deeper
     frontier as exploring the whole tree ([Queries.Full]).
   - The task wire form: modes round-trip, and unknown or incomplete
     modes are rejected.
   - A live coordinator ([slx serve], spawned from the built binary):
     a malformed request gets a 400 and the service keeps answering;
     a served store resumes the CLI to the cold digest; and served
     resumes credit [steps_saved] as the CLI's store path does. *)

open Support
module Json = Slx_obs.Json
module Store = Slx_store.Store
module Queries = Slx_serve.Queries

let spec_of fields =
  match Result.bind (Json.parse fields) Queries.spec_of_json with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "bad spec %s: %s" fields e

let parse_result s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable task result %s: %s" s e

let outcome j =
  Option.value ~default:"" (Option.bind (Json.member "outcome" j) Json.str)

(* A result without its work counters: everything a resumed task must
   reproduce exactly. *)
let comparable = function
  | Json.Obj kvs ->
      Json.Obj
        (List.filter (fun (k, _) -> k <> "steps" && k <> "steps_replayed") kvs)
  | j -> j

let frontier_of j =
  match Option.bind (Json.member "frontier" j) Queries.frontier_of_json with
  | Some f -> f
  | None -> Alcotest.failf "no frontier in %s" (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Resume = Full.                                                      *)

(* Cut a frontier with a persist run two levels up, resume it to the
   spec's depth, and compare with one full run.  Returns the resumed
   result and the number of seeds it resumed. *)
let resume_matches_full name sp =
  let base = sp.Queries.sp_depth - 2 in
  let shallow =
    parse_result (Queries.run_task { sp with Queries.sp_depth = base } Queries.Full)
  in
  let f = frontier_of shallow in
  let full = parse_result (Queries.run_task sp Queries.Full) in
  let resumed = parse_result (Queries.run_task sp (Queries.Resume (base, f))) in
  Alcotest.(check string)
    (name ^ ": resumed = full")
    (Json.to_string (comparable full))
    (Json.to_string (comparable resumed));
  (resumed, List.length f.Store.f_seeds)

let check_outcome name expected j =
  Alcotest.(check string) (name ^ ": outcome") expected (outcome j)

let test_resume_explore () =
  List.iter
    (fun (impl, n, depth, crashes) ->
      let name = Printf.sprintf "%s n=%d d=%d c=%d" impl n depth crashes in
      let sp =
        spec_of
          (Printf.sprintf
             "{\"impl\": %S, \"n\": %d, \"depth\": %d, \"crashes\": %d}"
             impl n depth crashes)
      in
      let r, seeds = resume_matches_full name sp in
      check_outcome name "ok" r;
      check_bool (name ^ ": frontier had seeds") true (seeds > 0))
    [
      ("cas", 2, 8, 1);
      ("register", 2, 10, 0);
      ("cas", 3, 8, 0);
      ("register", 3, 8, 0);
    ]

(* Clean at depth 1, failing at depth 3: the resumed walk must find the
   same lex-least witness as the full one. *)
let test_resume_counterexample () =
  let sp =
    spec_of "{\"impl\": \"selfish\", \"depth\": 3, \"crashes\": 1}"
  in
  let r, seeds = resume_matches_full "selfish" sp in
  check_outcome "selfish" "counterexample" r;
  check_bool "selfish: frontier had seeds" true (seeds > 0)

let test_resume_lasso () =
  let sp =
    spec_of
      "{\"kind\": \"live\", \"impl\": \"register\", \"property\": \"1,2\", \
       \"depth\": 8, \"max_period\": 4, \"pump\": 32}"
  in
  let r, seeds = resume_matches_full "live register (1,2)" sp in
  check_outcome "live register (1,2)" "lasso" r;
  check_bool "live register (1,2): frontier had seeds" true (seeds > 0)

let test_resume_live_clean () =
  let sp =
    spec_of
      "{\"kind\": \"live\", \"impl\": \"cas\", \"property\": \"obstruction\", \
       \"n\": 2, \"depth\": 8, \"crashes\": 1, \"max_period\": 4, \"pump\": \
       40}"
  in
  let r, seeds = resume_matches_full "live cas" sp in
  check_outcome "live cas" "no_fair_cycle" r;
  check_bool "live cas: frontier had seeds" true (seeds > 0)

let test_resume_no_seeds () =
  let sp = spec_of "{\"impl\": \"cas\", \"depth\": 10, \"crashes\": 1}" in
  let r, seeds = resume_matches_full "empty frontier" sp in
  check_int "empty frontier: no seeds" 0 seeds;
  check_outcome "empty frontier" "ok" r;
  check_int "empty frontier: nothing replayed" 0
    (Option.get (Option.bind (Json.member "steps_replayed" r) Json.int))

let test_resume_not_shallower () =
  let sp = spec_of "{\"impl\": \"cas\", \"depth\": 6}" in
  let f = frontier_of (parse_result (Queries.run_task sp Queries.Full)) in
  check_outcome "base at full depth" "error"
    (parse_result (Queries.run_task sp (Queries.Resume (6, f))))

(* ------------------------------------------------------------------ *)
(* Task wire form.                                                     *)

let test_mode_wire () =
  let f =
    {
      Store.f_base_runs = 17;
      f_base_digest = 3784237809352984055;
      f_seeds =
        [
          { Store.sd_script = [ 1; 2; 3 ]; sd_sleep = [ 5 ] };
          { Store.sd_script = []; sd_sleep = [] };
        ];
    }
  in
  List.iter
    (fun m ->
      let s = Queries.mode_to_json m in
      match Result.bind (Json.parse s) Queries.mode_of_json with
      | Ok m' -> check_bool ("round trip " ^ s) true (m = m')
      | Error e -> Alcotest.failf "round trip %s: %s" s e)
    [ Queries.Full; Queries.Resume (6, f) ];
  List.iter
    (fun s ->
      match Result.bind (Json.parse s) Queries.mode_of_json with
      | Ok _ -> Alcotest.failf "accepted task %s" s
      | Error _ -> ())
    [
      "{\"mode\": \"split\", \"split_depth\": 6}";
      "{\"mode\": \"slice\", \"base_depth\": 6, \"seeds\": []}";
      "{\"mode\": \"resume\", \"base_depth\": 6}";
      "{\"mode\": \"resume\", \"frontier\": {\"base_runs\": 1, \
       \"base_digest\": 2, \"seeds\": []}}";
    ]

(* ------------------------------------------------------------------ *)
(* A live coordinator.                                                 *)

let slx_bin = "../bin/slx_cli.exe"

let temp_store () =
  let path = Filename.temp_file "slx_serve_test" ".store" in
  Sys.remove path;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> Alcotest.fail "no port")

(* Send raw bytes, read until the server closes: the whole response. *)
let exchange port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string raw in
      let rec send off =
        if off < Bytes.length b then
          send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec recv () =
        match Unix.select [ fd ] [] [] 30. with
        | [], _, _ -> Alcotest.fail "no response within 30 s"
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> Buffer.contents buf
            | k ->
                Buffer.add_subbytes buf chunk 0 k;
                recv ())
      in
      recv ())

let request ~meth ~path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" meth path
    (String.length body) body

let status_line response =
  match String.index_opt response '\r' with
  | Some i -> String.sub response 0 i
  | None -> response

(* The JSON on the last line of a response body. *)
let last_json response =
  let lines =
    List.filter
      (fun l -> String.trim l <> "" && l.[0] = '{')
      (String.split_on_char '\n' response)
  in
  match List.rev lines with
  | last :: _ -> parse_result last
  | [] -> Alcotest.failf "no JSON in %S" response

(* Run [f port] against a fresh one-worker coordinator on [store];
   the coordinator is shut down and reaped afterwards. *)
let with_server ~store f =
  let port = free_port () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process slx_bin
      [| slx_bin; "serve"; "--port"; string_of_int port; "--workers"; "1";
         "--store"; store |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (exchange port (request ~meth:"POST" ~path:"/shutdown" ""))
       with _ -> Unix.kill pid Sys.sigkill);
      ignore (Unix.waitpid [] pid);
      close_in_noerr ic)
    (fun () ->
      (* The coordinator prints one line once it listens. *)
      ignore (input_line ic);
      f port)

let query port fields =
  let j =
    last_json
      (exchange port
         (request ~meth:"POST" ~path:"/query"
            ("{" ^ fields ^ ", \"wait\": true}")))
  in
  match Json.member "result" j with
  | Some r -> (Option.bind (Json.member "source" j) Json.str, r)
  | None -> Alcotest.failf "query %s: %s" fields (Json.to_string j)

let stats port = last_json (exchange port (request ~meth:"GET" ~path:"/stats" ""))

let stat j path =
  List.fold_left (fun j k -> Option.get (Json.member k j)) j path
  |> Json.int |> Option.get

let test_negative_content_length () =
  with_server ~store:(temp_store ()) (fun port ->
      let resp =
        exchange port "POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}"
      in
      Alcotest.(check string)
        "negative Content-Length" "HTTP/1.1 400 Bad Request" (status_line resp);
      let resp = exchange port (request ~meth:"GET" ~path:"/stats" "") in
      Alcotest.(check string)
        "still serving" "HTTP/1.1 200 OK" (status_line resp);
      check_int "no query was created" 0 (stat (last_json resp) [ "queries" ]))

let cli_json args =
  let out = Filename.temp_file "slx_serve_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let rc =
        Sys.command (Printf.sprintf "%s %s --json > %s" slx_bin args out)
      in
      check_int ("exit code of slx " ^ args) 0 rc;
      parse_result (In_channel.with_open_bin out In_channel.input_all))

let history_digest j =
  stat j [ "stats"; "history_digest" ]

(* A served record's frontier must carry its 63-bit digest exactly:
   the CLI resuming from it reports the cold run's digest. *)
let test_served_store_resumes_cli () =
  let store = temp_store () in
  with_server ~store (fun port ->
      let src, r = query port "\"impl\": \"cas\", \"crashes\": 1, \"depth\": 8" in
      check_bool "served full" true (src = Some "full");
      check_outcome "served" "ok" r;
      (* The one worker's peak resident set, where /proc can tell. *)
      match Json.member "worker_hwm_kb" (stats port) with
      | Some (Json.Arr [ Json.Int kb ]) ->
          check_bool "worker_hwm_kb > 0" true (kb > 0)
      | Some (Json.Arr [ Json.Null ])
        when Slx_obs.Proc_status.kb "VmHWM" = None -> ()
      | j ->
          Alcotest.failf "worker_hwm_kb: %s"
            (Option.fold ~none:"missing" ~some:Json.to_string j));
  let args = "explore --impl cas --depth 10 --crashes 1" in
  let resumed = cli_json (args ^ " --store " ^ store) in
  Alcotest.(check (option string))
    "CLI resumed the served record" (Some "resumed from depth 8")
    (Option.bind (Json.member "store_source" resumed) Json.str);
  check_int "resumed digest = cold digest" (history_digest (cli_json args))
    (history_digest resumed)

(* The same deepening, once through the CLI's store path and once
   through the service, credits the same [steps_saved]: the stored
   steps minus the steps the resume replayed, never the whole stored
   count. *)
let test_served_resume_credit () =
  let cli_store = temp_store () in
  let base = "explore --impl register --crashes 1 --store " ^ cli_store in
  ignore (cli_json (base ^ " --depth 8"));
  ignore (cli_json (base ^ " --depth 10"));
  let cli_saved =
    (Store.counters (Store.open_ cli_store)).Store.c_steps_saved
  in
  with_server ~store:(temp_store ()) (fun port ->
      let fields d =
        Printf.sprintf "\"impl\": \"register\", \"crashes\": 1, \"depth\": %d" d
      in
      let _, shallow = query port (fields 8) in
      let src, deep = query port (fields 10) in
      check_bool "served resumed" true (src = Some "resumed");
      let saved = stat (stats port) [ "store"; "steps_saved" ] in
      check_int "stored steps minus replayed steps"
        (max 0 (stat shallow [ "steps" ] - stat deep [ "steps_replayed" ]))
        saved;
      check_int "steps_saved as the CLI credits it" cli_saved saved)

let suites =
  [
    ( "serve.resume",
      [
        Alcotest.test_case "explore cas/register, n=2 and n=3" `Quick
          test_resume_explore;
        Alcotest.test_case "counterexample (selfish)" `Quick
          test_resume_counterexample;
        Alcotest.test_case "lasso (live register (1,2))" `Quick
          test_resume_lasso;
        Alcotest.test_case "clean live cas" `Quick test_resume_live_clean;
        Alcotest.test_case "frontier without seeds" `Quick test_resume_no_seeds;
        Alcotest.test_case "base not shallower is an error" `Quick
          test_resume_not_shallower;
        Alcotest.test_case "task modes on the wire" `Quick test_mode_wire;
      ] );
    ( "serve.coordinator",
      [
        Alcotest.test_case "negative Content-Length answers 400" `Quick
          test_negative_content_length;
        Alcotest.test_case "served store resumes the CLI exactly" `Quick
          test_served_store_resumes_cli;
        Alcotest.test_case "served resumes credit steps_saved" `Quick
          test_served_resume_credit;
      ] );
  ]
