(* Benchmark entry point.

   dune exec bench/main.exe perf           -- Bechamel perf
   dune exec bench/main.exe smoke          -- tiny explorer smoke (runtest)
   dune exec bench/main.exe counts FILE    -- its counted rows, written
                                              to FILE (runtest diffs it)

   The paper experiments E1-E20 are the claims ledger,
   test/golden/claims_corpus.ml, which `dune runtest` diffs. *)

let () =
  let ok =
    match Array.to_list Sys.argv with
    | [ _; "perf" ] ->
        Perf.run ();
        true
    | [ _; "smoke" ] -> Smoke.run ()
    | [ _; "counts"; path ] -> Smoke.counts path
    | _ ->
        prerr_endline "usage: main.exe (perf | smoke | counts FILE)";
        false
  in
  exit (if ok then 0 else 1)
