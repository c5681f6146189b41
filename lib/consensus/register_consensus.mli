(** Obstruction-free consensus from read/write registers.

    The positive half of Theorem 5.2: (1,1)-freedom (obstruction-
    freedom) does not exclude agreement and validity for
    register-based consensus — witnessed by this implementation, a
    commit–adopt cascade in the style of [Herlihy–Luchangco–Moir 2003]
    and [Guerraoui–Ruppert 2007] (the paper's citations [20, 17]).

    Structure: an unbounded sequence of commit–adopt rounds, each built
    from two arrays of single-writer registers, plus a decision
    register.  In round [r] a process writes its preference, collects
    the round's writes, and either {e commits} (it saw only its own
    value, twice) or {e adopts} a possibly-different preference and
    moves to round [r + 1].  A process running solo commits within two
    rounds; two lockstep processes with distinct inputs adopt their own
    values forever — exactly the behaviour the paper's Section 5.2
    impossibility discussion requires (see {!Consensus_adversary}).

    The cascade is {!Commit_adopt}, shared with
    [Slx_objects.One_shot_consensus.Registers]; this module is one
    instance of it over integer values.

    Only {!Slx_base_objects.Register} is used, so the implementation
    falls inside the “implementations from registers” class of
    Corollaries 4.5 and 4.10 and Theorem 5.2. *)

val factory :
  ?max_rounds:int ->
  unit ->
  (Consensus_type.invocation, Consensus_type.response) Slx_sim.Runner.factory
(** A fresh implementation instance: one {!Commit_adopt.t}.  It
    registers only the decision register; round [r]'s [2n] registers
    are built between steps when a process first enters round [r], at
    ids fixed by the instance and [r].
    [max_rounds] (default [4096]) only caps the cascade: a process
    entering round [max_rounds] raises.  It costs nothing until
    reached, so the default suits any bounded run (each round takes
    [2n + 3] steps of a process). *)
