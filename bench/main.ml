(* Benchmark entry point.

   dune exec bench/main.exe                -- experiments then perf
   dune exec bench/main.exe experiments    -- experiment suite only
   dune exec bench/main.exe perf           -- Bechamel perf only
   dune exec bench/main.exe smoke          -- tiny explorer smoke (runtest) *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let ok =
    match mode with
    | "experiments" -> Experiments.run ()
    | "perf" ->
        Perf.run ();
        true
    | "smoke" -> Smoke.run ()
    | "all" ->
        let ok = Experiments.run () in
        Perf.run ();
        ok
    | other ->
        Printf.eprintf
          "unknown mode %S (use: experiments | perf | smoke)\n" other;
        false
  in
  exit (if ok then 0 else 1)
