(* The static soundness linter's command line, kept apart from [slx]:
   [slx_lint] links compiler-libs, whose initialisers would otherwise
   run in every [slx] process before it reads argv.

   slx_lint_cli [PATHS] [--ci] [--json] [--root DIR] [--waivers FILE]
       [--out FILE]
       Statically check model sources (escape and determinism
       families); nonzero exit on any unwaived finding.  *)

open Cmdliner

let lint_today () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let default_waiver_file = "lint-waivers.conf"

(* Sweep, defaulting the waiver file to the checked-in
   [lint-waivers.conf] when present. *)
let run_lint ?root ?paths ?waivers ~ci () =
  let module Lint = Slx_lint.Lint in
  let rootdir = Option.value root ~default:"." in
  let waiver_file =
    match waivers with
    | Some _ as w -> w
    | None ->
        if Sys.file_exists (Filename.concat rootdir default_waiver_file) then
          Some default_waiver_file
        else None
  in
  Lint.run ?root ?paths ?waiver_file ~today:(lint_today ())
    ~strict_waivers:ci ()

let lint_cmd =
  let module Lint = Slx_lint.Lint in
  let paths_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to sweep, relative to --root (default: \
             the model-code set: lib/objects, lib/consensus, lib/tm, \
             lib/base_objects, examples).")
  in
  let root_arg =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Resolve paths and the waiver file relative to $(docv).")
  in
  let waivers_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "waivers" ] ~docv:"FILE"
          ~doc:
            "The waiver file (default: lint-waivers.conf under --root \
             when present).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the full report as one JSON object.")
  in
  let ci_arg =
    Arg.(value & flag
         & info [ "ci" ]
             ~doc:"Gate on stale waivers too: an entry that matches no \
                   finding becomes a warning instead of a note.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Also write the report to this file.")
  in
  let run paths root waivers json ci out =
    let paths = match paths with [] -> None | ps -> Some ps in
    let rp = run_lint ~root ?paths ?waivers ~ci () in
    let rendered =
      if json then Lint.to_json rp ^ "\n"
      else Format.asprintf "%a@." Lint.pp rp
    in
    print_string rendered;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc rendered;
        close_out oc)
      out;
    if Lint.clean rp then 0 else 1
  in
  Cmd.v
    (Cmd.info "slx_lint_cli"
       ~doc:
         "Statically check model sources for escape and determinism \
          violations: shared state kept outside registered, touched cells \
          and calls that can differ between a run and its replay.  \
          Nonzero exit on any unwaived finding.")
    Term.(
      const run $ paths_arg $ root_arg $ waivers_arg $ json_arg $ ci_arg
      $ out_arg)

let () = exit (Cmd.eval' lint_cmd)
