(* The wire helpers both sides of the socket share. *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let body_start s =
  let rec find i =
    if i + 4 > String.length s then None
    else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  find 0

let connect ?(host = "127.0.0.1") ~port () =
  match Unix.inet_addr_of_string host with
  | exception Failure _ -> Error (Printf.sprintf "bad host %S" host)
  | addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          close_quiet fd;
          Error
            (Printf.sprintf "cannot reach %s:%d: %s" host port
               (Unix.error_message e)))

(* Responses are [Connection: close]: stream everything after the
   header block straight to [out] until EOF.  That one loop serves
   both fixed-length JSON bodies and ndjson heartbeat streams.  The
   status line's code and reason are returned, [None] when no header
   block came. *)
let relay_body fd ~out =
  let buf = Bytes.create 65536 in
  let head = Buffer.create 256 in
  let status = ref None in
  let rec loop () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        if Option.is_some !status then output out buf 0 n
        else begin
          Buffer.add_subbytes head buf 0 n;
          let s = Buffer.contents head in
          Option.iter
            (fun off ->
              (* What follows "HTTP/1.1 " on the status line. *)
              let line = List.hd (String.split_on_char '\r' s) in
              let i =
                Option.fold ~none:0 ~some:succ (String.index_opt line ' ')
              in
              status := Some (String.sub line i (String.length line - i));
              output_substring out s off (String.length s - off))
            (body_start s)
        end;
        flush out;
        loop ()
  in
  (try loop () with Unix.Unix_error _ -> ());
  close_quiet fd;
  !status

let request ?host ~port ~meth ~path ?(body = "") ~out () =
  match connect ?host ~port () with
  | Error _ as e -> e
  | Ok fd -> (
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: slx\r\nContent-Length: %d\r\n\
           Connection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      match write_all fd req with
      | () -> (
          match relay_body fd ~out with
          | Some status when String.starts_with ~prefix:"2" status -> Ok ()
          | Some status -> Error ("server answered " ^ status)
          | None -> Error "no response from the server")
      | exception Unix.Unix_error (e, _, _) ->
          close_quiet fd;
          Error (Unix.error_message e))

(* The body is the spec object with the transport members appended. *)
let post_query ?host ~port ~wait ?timeout spec ~out =
  let module Json = Slx_obs.Json in
  let transport =
    ("wait", Json.Bool wait)
    :: Option.to_list (Option.map (fun s -> ("timeout", Json.Num s)) timeout)
  in
  request ?host ~port ~meth:"POST" ~path:"/query"
    ~body:(Json.to_string (Json.Obj (spec @ transport)))
    ~out ()

let get ?host ~port path ~out = request ?host ~port ~meth:"GET" ~path ~out ()

let shutdown ?host ~port () =
  request ?host ~port ~meth:"POST" ~path:"/shutdown" ~out:stdout ()
