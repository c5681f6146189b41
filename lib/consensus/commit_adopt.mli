(** One consensus instance of the commit–adopt cascade from read/write
    registers, written once for {!Register_consensus} and
    [Slx_objects.One_shot_consensus.Registers], which differ only in
    the values they agree on.

    The instance is a decision register and an unbounded sequence of
    rounds.  A round is two arrays of [n] single-writer registers.  In
    a round a process writes its preference, collects the round's
    writes, reports whether it saw only its own value, and collects the
    reports: it {e commits} when every report it sees says so, and
    otherwise {e adopts} a reported value (or keeps its own) for the
    next round (Gafni's commit–adopt, 1998).  Every step is a
    {!Slx_base_objects.Register} access.

    Rounds are built on demand, between two steps: the first process to
    enter round [r] builds it after its decision read, so building adds
    no step.  [make] reserves one id block for the whole instance
    ({!Slx_sim.Runtime.reserve_ids}, [1 + max_rounds * 2n] ids): the
    decision register takes offset [0], and round [r]'s phase-1 and then
    phase-2 registers the [2n] offsets from [1 + r * 2n]
    ({!Slx_sim.Runtime.in_block}).  An id is thus a function of the
    instance, the round and the slot, never of the schedule that first
    needed the round, so the explorers tell the same configurations
    apart as with every round built up front (doc/model.md §9). *)

type 'a t

val make :
  name:string -> equal:('a -> 'a -> bool) -> n:int -> max_rounds:int -> 'a t
(** A fresh undecided instance for [n] processes, comparing values with
    [equal].  It registers only the decision register; the reserved
    ids cost nothing until a round registers at them, so [max_rounds]
    is a pure cap. *)

val propose : 'a t -> proc:Slx_history.Proc.t -> 'a -> 'a
(** [propose t ~proc v]: process [proc] runs the cascade from
    preference [v] and returns the decided value.  Before each round it
    reads the decision register and returns its value if set; after a
    commit it writes it.  Each round takes [2n + 3] steps of a process.
    @raise Failure ["<name>: max_rounds exceeded"] on entering round
    [max_rounds].
    @raise Invalid_argument if [proc] is not one of the [n] processes. *)
