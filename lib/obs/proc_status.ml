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
            (* [line] reads ["VmHWM:    1234 kB"]. *)
            let rest =
              String.trim
                (String.sub line (String.length prefix)
                   (String.length line - String.length prefix))
            in
            if String.ends_with ~suffix:"kB" rest then
              int_of_string_opt
                (String.trim (String.sub rest 0 (String.length rest - 2)))
            else None)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan
