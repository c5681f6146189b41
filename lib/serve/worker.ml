module Json = Slx_obs.Json
module Progress = Slx_obs.Progress

let reply line =
  print_string line;
  print_newline ();
  flush stdout

(* One task line, [{"spec": ...}], answered by one result line; the
   task's heartbeats come first, on the same pipe. *)
let handle_line line =
  let result, record =
    match Json.parse line with
    | Error e -> (Queries.error_result ("bad task line: " ^ e), "")
    | Ok j -> (
        match Option.map Queries.spec_of_json (Json.member "spec" j) with
        | Some (Ok spec) ->
            let progress =
              Progress.create ~interval:0.2 ~json:true ~out:stdout ()
            in
            let result, r = Queries.work ~progress spec in
            ( result,
              Printf.sprintf ", \"record\": %s"
                (Json.quote (Slx_store.Store.record_to_string r)) )
        | Some (Error e) -> (Queries.error_result e, "")
        | None -> (Queries.error_result "task without spec", ""))
  in
  reply (Printf.sprintf "{\"result\": %s%s}" result record)

let main () =
  (* The coordinator owns the terminal's SIGINT story; a worker only
     stops on stdin EOF or an explicit kill. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  (try
     while true do
       handle_line (input_line stdin)
     done
   with End_of_file -> ());
  0
