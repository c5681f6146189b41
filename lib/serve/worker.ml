module Json = Slx_obs.Json
module Progress = Slx_obs.Progress

let cancelled = ref false

let reply line =
  print_string line;
  print_newline ();
  flush stdout

let handle_line line =
  match Json.parse line with
  | Error e ->
      reply
        (Printf.sprintf "{\"lease\": -1, \"result\": %s}"
           (Queries.error_result ("bad task line: " ^ e)))
  | Ok j -> begin
      let lease =
        Option.value ~default:(-1) (Option.bind (Json.member "lease" j) Json.int)
      in
      let result, record =
        match Option.map Queries.spec_of_json (Json.member "spec" j) with
        | Some (Ok spec) ->
            (* Heartbeats ride the result pipe; the coordinator keys
               them to this lease because a worker runs one task at a
               time. *)
            let progress =
              Progress.create ~interval:0.2 ~json:true ~out:stdout ()
            in
            Queries.work ~cancel:(fun () -> !cancelled) ~progress spec
        | Some (Error e) -> (Queries.error_result e, None)
        | None -> (Queries.error_result "task without spec", None)
      in
      let record =
        match record with
        | Some r ->
            Printf.sprintf ", \"record\": %s"
              (Json.quote (Slx_store.Store.record_to_string r))
        | None -> ""
      in
      (* Consume the cancel flag once the result is computed and before
         the reply is written: a SIGUSR1 can land while the task line is
         still being read or parsed, and a reset at task start would
         erase it; a reset after the reply would erase a signal that
         lands between the two, when the coordinator may already have
         read the reply.  A signal that lands after the reset cancels
         the next task instantly, which is self-healing: the
         coordinator re-leases a task answered "cancelled" when it
         never cancelled its lease. *)
      cancelled := false;
      reply
        (Printf.sprintf "{\"lease\": %d, \"result\": %s%s}" lease result
           record)
    end

let main () =
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> cancelled := true));
  (* The coordinator owns the terminal's SIGINT story; a worker only
     stops on stdin EOF or an explicit kill. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  (try
     while true do
       handle_line (input_line stdin)
     done
   with End_of_file -> ());
  0
