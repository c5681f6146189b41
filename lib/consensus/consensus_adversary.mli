(** Adversaries against register-based consensus.

    The paper's negative results are games: “there is an adversary
    w.r.t. [L], i.e., an entity that plays against an implementation
    ensuring [S] and that decides on the schedule and inputs of
    processes to win the game by having the implementation violate
    [L]” (Section 1).  This module implements two such entities for
    consensus:

    - {!lockstep}: the classical synchronous schedule that keeps two
      processes with distinct proposals perfectly tied — the schedule
      underlying the Chor–Israeli–Li impossibility (the paper's [5])
      specialized to round-based register algorithms;

    - {!tie_attack}: an implementation-agnostic adversary that
      {e searches} for a tie-preserving schedule by replaying bounded
      prefixes and probing solo extensions (“valency probing”).  It
      defeats every deterministic register implementation we provide,
      and — correctly — fails against {!Cas_consensus}.

    A successful attack yields a bounded-fair run in which two
    processes take steps forever and neither ever decides: the witness
    that (1,2)-freedom excludes agreement and validity (Theorem 5.2,
    negative half). *)

open Slx_sim

type invocation = Consensus_type.invocation
type response = Consensus_type.response

val lockstep :
  ?pair:Slx_history.Proc.t * Slx_history.Proc.t ->
  unit ->
  (invocation, response) Driver.t
(** The strict-alternation adversary for the two processes of [pair]
    (default [(1, 2)]): the first proposes [0], the second [1], then
    steps alternate strictly, re-invoking a process if it ever
    completes an operation. *)

val run_lockstep :
  factory:(invocation, response) Runner.factory ->
  max_steps:int ->
  (invocation, response) Run_report.t
(** Play {!lockstep} against an implementation in a 2-process system. *)

type attack_result =
  | Defeated of (invocation, response) Run_report.t
      (** The adversary built a bounded-fair run with both processes
          active and no decision: liveness violated. *)
  | Lost of (invocation, response) Run_report.t
      (** The adversary could not avoid a decision; the report is a run
          in which a decision occurred. *)

val tie_attack :
  factory:(invocation, response) Runner.factory ->
  steps:int ->
  unit ->
  attack_result
(** The search adversary.  Starting from [propose(0)_1 . propose(1)_2],
    it extends the schedule one grant at a time, always keeping the
    configuration {e tied}: running either process solo from the
    current configuration must still lead to different decisions.  It
    prefers the process with fewer grants, so a successful attack is
    bounded-fair.  Each probe runs at most 1000 steps.

    The probes replay the schedule prefix from scratch, so the
    implementation must be deterministic (all ours are). *)

val decisions :
  (invocation, response) Slx_history.History.t -> (Slx_history.Proc.t * int) list
(** All (process, decided value) pairs in a history — empty on a
    successful attack. *)
