(* The static soundness linter's command line, kept apart from [slx]:
   [slx_lint] links compiler-libs, whose initialisers would otherwise
   run in every [slx] process before it reads argv.

   slx_lint_cli [PATHS] [--json] [--root DIR] [--out FILE]
       Statically check model sources (escape and determinism
       families); nonzero exit on any finding.  *)

open Cmdliner

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
          ~doc:"Resolve paths relative to $(docv).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the full report as one JSON object.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Also write the report to this file.")
  in
  let run paths root json out =
    let paths = match paths with [] -> None | ps -> Some ps in
    let rp = Lint.run ~root ?paths () in
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
          Nonzero exit on any finding.")
    Term.(const run $ paths_arg $ root_arg $ json_arg $ out_arg)

let () = exit (Cmd.eval' lint_cmd)
