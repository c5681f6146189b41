(* Exhaustive bounded verification: check a safety property on EVERY
   schedule of a small instance, not a random sample — and watch the
   explorer find a concrete counterexample for a broken implementation.

   Run with:  dune exec examples/exhaustive_check.exe *)

open Slx_consensus
open Slx_core

let verify name factory ~depth ~max_crashes =
  Printf.printf "== %s (depth %d, up to %d crashes) ==\n" name depth max_crashes;
  match
    (Explore.explore ~n:2 ~factory ~invoke:Slx_serve.Queries.safety_invoke
       ~depth ~max_crashes ~check:Slx_serve.Queries.check ())
      .Explore.outcome
  with
  | Explore.Ok runs ->
      Printf.printf "agreement and validity hold on ALL %d schedules\n" runs;
      if max_crashes > 0 then
        print_endline
          "  (each crash placed right after its process's last move, which\n\
          \   stands for every later place of that crash)";
      print_newline ()
  | Explore.Counterexample r ->
      Format.printf "VIOLATION found:@.  %a@.@." Consensus_type.pp_history
        r.Slx_sim.Run_report.history

let () =
  verify "CAS consensus"
    (fun () -> Cas_consensus.factory ())
    ~depth:10 ~max_crashes:1;
  verify "register consensus (commit-adopt)"
    (fun () -> Register_consensus.factory ())
    ~depth:9 ~max_crashes:0;
  verify "the selfish foil (decides its own value)"
    (fun () -> Selfish_consensus.factory ())
    ~depth:6 ~max_crashes:0;
  print_endline
    "The paper's safety claims are universally quantified; on small\n\
     instances the schedule tree is finite, so we can check them all."
