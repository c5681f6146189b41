(* Quickstart: build a consensus object, run it under three schedulers,
   and check safety and liveness on the resulting runs.

   Run with:  dune exec examples/quickstart.exe *)

open Slx_history
open Slx_sim
open Slx_liveness
open Slx_consensus

let propose_own = Consensus_type.propose_forever
let describe name r =
  let decisions = Consensus_adversary.decisions r.Run_report.history in
  Format.printf "@.== %s ==@." name;
  Format.printf "history (first events): %a@."
    Consensus_type.pp_history
    (History.prefix r.Run_report.history
       (min 8 (History.length r.Run_report.history)));
  Format.printf "decisions: %s@."
    (if decisions = [] then "none"
     else
       String.concat ", "
         (List.map
            (fun (p, v) -> Printf.sprintf "p%d -> %d" p v)
            decisions));
  Format.printf "agreement and validity: %b@."
    (Consensus_safety.check r.Run_report.history);
  Format.printf "bounded-fair: %b@." (Fairness.is_bounded_fair r);
  List.iter
    (fun (l, k) ->
      let f = Freedom.make ~l ~k in
      Format.printf "%a: %b@." Freedom.pp f
        (Freedom.holds ~good:Consensus_type.good r f))
    [ (1, 1); (1, 2); (2, 2) ]

let () =
  let factory = Register_consensus.factory () in

  (* 1. A solo run: process 1 alone (process 2 crashed at time 0).
     Obstruction-freedom — (1,1)-freedom — demands it decides. *)
  let solo =
    Runner.run ~n:2 ~factory
      ~driver:
        (Driver.with_crashes [ (0, 2) ] (Driver.solo 1 ~workload:propose_own))
      ~max_steps:400 ()
  in
  describe "solo schedule (p2 crashed)" solo;

  (* 2. A random fair schedule: decisions almost surely happen. *)
  let random =
    Runner.run ~n:2 ~factory
      ~driver:(Driver.random ~seed:42 ~workload:propose_own ())
      ~max_steps:400 ()
  in
  describe "random schedule" random;

  (* 3. The adversarial lockstep schedule of the consensus
     impossibility: nobody ever decides, yet safety is never
     violated — the safety-liveness trade-off in action. *)
  let lockstep =
    Consensus_adversary.run_lockstep ~factory ~max_steps:1000
  in
  describe "lockstep adversary" lockstep;

  Format.printf
    "@.The lockstep run is fair and safe but violates (1,2)-freedom:@.";
  Format.printf
    "wait-freedom excludes agreement and validity for register consensus.@."
