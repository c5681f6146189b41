let kb ?pid field =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some pid -> Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix line -> (
            let rest =
              String.sub line (String.length prefix)
                (String.length line - String.length prefix)
            in
            match Scanf.sscanf rest " %d kB" Fun.id with
            | v -> Some v
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                None)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan
