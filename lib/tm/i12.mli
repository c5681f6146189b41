(** Algorithm 1 of the paper: the TM implementation [I(1,2)].

    A modification of algorithm AGP from [Guerraoui–Kapalka,
    "Principles of Transactional Memory"] whose purpose is to show
    that (1,2)-freedom does not exclude the Section 5.3 property [S']
    (Lemma 5.4).  It is written as {!Agp_tm.with_hooks}: this module
    adds only the timestamp rule, as the body's start hook (publish a
    fresh timestamp) and commit guard (the three-timestamp abort).

    Shared state: a single compare-and-swap object [C] holding a
    version number and the value of every transactional variable, and
    a snapshot object [R] of [n] registers holding per-process
    timestamps.

    Per the paper's pseudocode, for process [p_i]:
    - [start()]: increment the local timestamp, publish it in [R[i]],
      copy [C] (version and values) into local memory, return [ok];
    - [x.read()] / [x.write(v)]: purely local (no atomic step);
    - [tryC()]: scan [R]; if at least three processes (self included)
      have a timestamp [>=] the local one, abort — this is the
      timestamp rule enforcing requirement 2 of [S']; otherwise
      compare-and-swap [C] from the copied [(version, values)] to
      [(version + 1, new values)], committing on success and aborting
      on failure — the version numbers ensure opacity.

    With two processes the timestamp test can count at most two, so it
    never fires and the algorithm degenerates to AGP — which is why it
    is (1,2)-free but, by design, aborts any three same-index fully
    concurrent transactions. *)

val factory :
  vars:int ->
  (Tm_type.invocation, Tm_type.response) Slx_sim.Runner.factory
(** A fresh instance over transactional variables [0 .. vars - 1],
    with [R] the atomic {!Slx_base_objects.Snapshot}.  Protocol misuse
    (e.g. [read] outside a transaction) answers [Aborted]. *)

val with_snapshot :
  make:(n:int -> int -> 'r) ->
  update:('r -> Slx_history.Proc.t -> int -> unit) ->
  scan:('r -> int array) ->
  vars:int ->
  (Tm_type.invocation, Tm_type.response) Slx_sim.Runner.factory
(** The same algorithm over any snapshot object [R]: [make ~n 0]
    creates it (after [C]), [update r p ts] publishes [p]'s timestamp
    and [scan r] reads every segment, index [p - 1] for process [p].
    {!factory} and {!I12_reg.factory} are its two instances. *)
