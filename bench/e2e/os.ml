(* Processes, clocks and paths for the end-to-end benchmark. *)

external wait4 : int -> int * int = "e2e_wait4"
(** [wait4 pid] reaps [pid]: (exit code or -signal, peak RSS in KiB). *)

external now_ns : unit -> int = "e2e_monotonic_ns" [@@noalloc]
external set_subreaper : unit -> unit = "e2e_set_subreaper"

external affinity : unit -> int array = "e2e_affinity"
(** The processors this process may run on. *)

external set_affinity : int array -> unit = "e2e_set_affinity"
(** Restrict this process, and children spawned later, to these. *)

external current_cpu : unit -> int = "e2e_current_cpu" [@@noalloc]

let now_s () = float_of_int (now_ns ()) /. 1e9

(* Run this process, and the children it spawns, on the one processor
   it is on now. *)
let pin_here () =
  let c = current_cpu () in
  if c >= 0 then set_affinity [| c |]

(* The executable sits at <root>/_build/default/bench/e2e/main.exe; the
   dune rule that generates [Slx_bin] makes building it build the CLI
   beside it. *)
let exe_dir = Filename.dirname Sys.executable_name
let slx_bin = Filename.concat exe_dir Slx_bin.relative
let build_dir = Filename.concat exe_dir "../../.."

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A private scratch directory inside the build tree, removed by the
   caller when the run ends. *)
let scratch_dir () =
  let parent = Filename.concat build_dir "e2e-tmp" in
  (try Sys.mkdir parent 0o755 with Sys_error _ -> ());
  let dir = Filename.concat parent (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> failwith "free_port")

type child = {
  exit : int;  (** Exit code, -signal, or -1000 when killed on timeout. *)
  out : string;  (** Everything the child wrote to stdout. *)
  wall_s : float;  (** From just before spawn to reaped. *)
  maxrss_kb : int;
}

let dev_null =
  lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)

(* Run [argv] to completion with stdout captured; kill it if it is
   still running [timeout_s] after the spawn. *)
let run ~timeout_s argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_s () in
  let pid =
    Unix.create_process argv.(0) argv (Lazy.force dev_null) w Unix.stderr
  in
  Unix.close w;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let timed_out = ref false in
  let rec pump () =
    let left = t0 +. timeout_s -. now_s () in
    if left <= 0. then begin
      timed_out := true;
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
    end
    else
      match Unix.select [ r ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      | [], _, _ -> pump ()
      | _ -> (
          match Unix.read r chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              pump ())
  in
  pump ();
  Unix.close r;
  let exit, maxrss_kb = wait4 pid in
  {
    exit = (if !timed_out then -1000 else exit);
    out = Buffer.contents buf;
    wall_s = now_s () -. t0;
    maxrss_kb;
  }

(* [f ()] in a forked child, its result marshalled back, with the
   child's peak RSS in KiB; [Error] if the child died without one. *)
let in_child (f : unit -> 'a) : ('a * int, string) result =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (f ()) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Ok (Marshal.from_channel ic : 'a) with End_of_file -> Error "no result" in
      close_in ic;
      let code, maxrss_kb = wait4 pid in
      Result.map (fun v -> (v, maxrss_kb))
        (if code = 0 then v else Error (Printf.sprintf "child exited %d" code))

let zombie pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | stat -> (
      (* The state letter follows the parenthesised command name. *)
      match String.rindex_opt stat ')' with
      | Some i when i + 2 < String.length stat -> stat.[i + 2] = 'Z'
      | _ -> true)
  | exception Sys_error _ -> true

(* Reap a child that was asked to exit: wait up to [timeout_s] for it
   to finish, kill it otherwise, then [wait4] it. *)
let reap ~timeout_s pid =
  let deadline = now_s () +. timeout_s in
  while (not (zombie pid)) && now_s () < deadline do
    Unix.sleepf 0.002
  done;
  if not (zombie pid) then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait4 pid

(* Reap orphans reparented to this process (see {!set_subreaper}),
   giving them [timeout_s] to exit on their own. *)
let reap_orphans ~timeout_s =
  let deadline = now_s () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()
