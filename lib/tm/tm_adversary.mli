(** The TM adversaries of Sections 4.1 and 5.3.

    {b The local-progress adversary} (Section 4.1, after
    Bushkov–Guerraoui–Kapalka 2012): a three-step strategy over two
    processes that defeats local progress against any opaque TM —

    + {e Step 1}: [p1] starts a transaction and reads [x], retrying on
      abort;
    + {e Step 2}: [p2] runs a full conflicting transaction
      (start, read [x], write [x := v' + 1], tryC), retrying on abort,
      until it commits;
    + {e Step 3}: [p1] tries to finish its — now doomed — transaction
      (write [x := v'' + 1], tryC); on abort the adversary returns to
      Step 1; a commit would end the game (and, against an opaque TM,
      never happens).

    The set of histories this strategy produces is the adversary set
    [F1] of Corollary 4.6; every history it produces begins with
    [start_1].  {!local_progress_adversary} with [~swap:true] plays
    the process-swapped twin, producing [F2] (histories beginning with
    [start_2]); [F1 ∩ F2 = ∅], hence [Gmax = ∅] and Corollary 4.6.

    {b The three-way adversary} (Section 5.3): processes [p1 p2 p3]
    repeatedly start same-index transactions concurrently, wait until
    {e all three} start responses arrived, then invoke [tryC]
    concurrently — triggering the timestamp rule of [S'], so every
    implementation of [S'] must abort them all, forever: (1,3)-freedom
    excludes [S']. *)

open Slx_sim

val local_progress_adversary :
  ?swap:bool -> unit -> (Tm_type.invocation, Tm_type.response) Driver.t
(** The Section 4.1 strategy; [swap] exchanges the roles of [p1] and
    [p2] (default [false]).  A 2-process driver. *)

val run_local_progress :
  ?swap:bool ->
  factory:(Tm_type.invocation, Tm_type.response) Runner.factory ->
  max_steps:int ->
  unit ->
  (Tm_type.invocation, Tm_type.response) Run_report.t

val run_alternating_starts :
  factory:(Tm_type.invocation, Tm_type.response) Runner.factory ->
  max_steps:int ->
  (Tm_type.invocation, Tm_type.response) Run_report.t
(** A run under the mutual-abort adversary for latest-starter TMs
    ({!Mutual_abort_tm}): after two opening [start]s it cycles
    [p1 tryC; p1 start; p2 tryC; p2 start], so each commit attempt
    finds the other process freshly started.  Witnesses that
    obstruction-freedom does not imply lock-freedom. *)

val three_way_adversary :
  unit -> (Tm_type.invocation, Tm_type.response) Driver.t
(** The Section 5.3 strategy; a 3-process driver. *)

val run_three_way :
  factory:(Tm_type.invocation, Tm_type.response) Runner.factory ->
  max_steps:int ->
  (Tm_type.invocation, Tm_type.response) Run_report.t

val commits : Tm_type.history -> (Slx_history.Proc.t * int) list
(** Commit counts per process, for inspecting adversary outcomes. *)
