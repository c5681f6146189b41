(** The commit–adopt cascade from read/write registers, written once
    for {!Register_consensus} and
    [Slx_objects.One_shot_consensus.Registers], which differ only in
    the values they agree on and in how they allocate rounds.

    A round is two arrays of [n] single-writer registers.  In a round a
    process writes its preference, collects the round's writes, reports
    whether it saw only its own value, and collects the reports: it
    {e commits} when every report it sees says so, and otherwise
    {e adopts} a reported value (or keeps its own) for the next round
    (Gafni's commit–adopt, 1998).  Every step is a
    {!Slx_base_objects.Register} access. *)

open Slx_base_objects

type 'a round

val make_round : int -> 'a round
(** A fresh round for [n] processes: its [n] phase-1 registers, then
    its [n] phase-2 registers ([2n] ids, in that order, inside an id
    block). *)

val decide :
  name:string ->
  equal:('a -> 'a -> bool) ->
  n:int ->
  max_rounds:int ->
  decision:'a option Register.t ->
  round:(int -> 'a round) ->
  proc:Slx_history.Proc.t ->
  'a ->
  'a
(** [decide ... ~proc v]: process [proc] runs the cascade from
    preference [v] and returns the decided value.  Before each round
    it reads [decision] and returns its value if set; after a commit
    it writes [decision].  [round r] supplies round [r] (the caller's
    allocation policy; it is called after the [decision] read).
    @raise Failure ["<name>: max_rounds exceeded"] on entering round
    [max_rounds]. *)
