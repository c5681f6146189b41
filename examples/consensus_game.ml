(* The exclusion game of Section 4, played live: the tie-maintaining
   adversary searches for a schedule that keeps two proposers undecided
   forever against register-based consensus, then loses against
   CAS-based consensus.

   Run with:  dune exec examples/consensus_game.exe *)

open Slx_sim
open Slx_liveness
open Slx_consensus
open Slx_core

let good = Consensus_type.good

let play name factory =
  Format.printf "@.== tie-maintaining adversary vs %s ==@." name;
  match Consensus_adversary.tie_attack ~factory ~steps:50 () with
  | Consensus_adversary.Defeated r ->
      Format.printf "adversary WINS: %d fair steps, no decision.@."
        r.Run_report.total_time;
      Format.printf "run still satisfies agreement and validity: %b@."
        (Consensus_safety.check r.Run_report.history);
      Format.printf "(1,2)-freedom on the run: %b@."
        (Freedom.holds ~good r (Freedom.make ~l:1 ~k:2))
  | Consensus_adversary.Lost r ->
      Format.printf "adversary LOSES: a decision was forced.@.";
      Format.printf "decisions: %s@."
        (String.concat ", "
           (List.map
              (fun (p, v) -> Printf.sprintf "p%d -> %d" p v)
              (Consensus_adversary.decisions r.Run_report.history)))

let () =
  play "register consensus (commit-adopt)" (Register_consensus.factory ());
  play "CAS consensus" (Cas_consensus.factory ());

  (* The same result through the Exclusion game API. *)
  Format.printf "@.== Exclusion.play: lockstep vs register consensus ==@.";
  let v =
    Exclusion.play ~n:2
      ~factory:(Register_consensus.factory ())
      ~adversary:(Consensus_adversary.lockstep ())
      ~safety:Consensus_safety.property
      ~liveness:(Live_property.of_freedom ~good (Freedom.make ~l:1 ~k:2))
      ~max_steps:1500
  in
  Format.printf "fair=%b safe=%b liveness=%b -> adversary wins: %b@."
    v.Exclusion.fair v.Exclusion.safety_holds v.Exclusion.liveness_holds
    (Exclusion.adversary_wins v)
