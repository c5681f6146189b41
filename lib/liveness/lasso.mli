(** Lasso certificates: evidence that a bounded adversary run extends
    to an infinite one.

    A bounded run only {e witnesses} an infinite-execution liveness
    violation if the adversary can keep going forever.  All the
    adversaries in this repository win by driving the game into a
    cycle — the same phases repeat with fresh payloads (growing
    timestamps, incremented values).  The checkable certificate is
    {e periodicity of the abstracted event trace}: map each windowed
    event to a skeleton that erases the drifting payloads (process +
    constructor, by default) and look for a period.

    A period is a strong-but-not-airtight certificate (the hidden
    implementation state could still drift in a way that eventually
    breaks the cycle); the experiment suite therefore combines it with
    window sweeps (experiment E12).  For the deterministic adversaries
    here the abstracted traces are exactly periodic.

    The fair-cycle search's certificate is stronger: a stem and a
    cycle, nothing else, which {!pump} replays on a fresh instance and
    checks repetition by repetition against the first. *)

open Slx_sim

val trace_period : equal:('a -> 'a -> bool) -> 'a list -> int option
(** [trace_period ~equal xs] is the smallest [p >= 1] such that [xs] is
    periodic with period [p] ([xs.(i) = xs.(i + p)] wherever defined)
    and [p <= length xs / 2] — so at least two full repetitions are
    observed.  [None] if no such period exists or [xs] is too short. *)

val tick_cells :
  ('inv, 'res) Run_report.t ->
  string list list
(** The abstracted trace, one cell list per tick [0 .. total_time - 1]:
    the tick's scheduling grant (as ["pN:step"]), if any, followed by
    the skeletons of the events recorded at that tick.  A skeleton is
    the abstraction every trace function here uses: process +
    constructor name, payloads erased (e.g. [Invocation (2, Write (0,
    17))] becomes ["p2:inv"]), coarse but sufficient for the
    adversaries here.  This is the
    quotient in which cycles of the configuration graph are detected:
    raw configurations never recur on a run (time, histories and step
    counts grow monotonically), but a run that pumps a scheduling
    cycle repeats its per-tick cells. *)

val cell_code :
  ('inv, 'res) Slx_sim.Driver.decision ->
  ('inv, 'res) Slx_history.Event.t list ->
  int
(** [cell_code d events] is the {!tick_cells} cell of a tick that
    applied [d] and recorded [events] (chronological), as one int —
    the form the fair-cycle search carries, compares and keys on.
    Each element (the grant of a [Schedule], then each event's
    skeleton) is [((p lsl 2) lor kind) + 1], kind 0-3 for
    grant, invocation, response, crash, packed in 8-bit slots from the
    low end; so two cells are equal iff their codes are.
    @raise Invalid_argument if a process id is above 31 or the tick
    has more than 3 elements. *)

val same_prefix : int -> int list -> int list -> bool
(** [same_prefix k xs ys] holds when [xs] and [ys] both have at least
    [k] elements and their first [k] are equal.  On cell codes, newest
    first, [same_prefix p codes (drop p codes)] is the search's
    periodicity test: the last [2p] ticks are [p]-periodic. *)

val may_close :
  max_period:int ->
  ('inv, 'res) Slx_sim.Driver.decision ->
  int list ->
  bool
(** [may_close ~max_period d rev_codes] is [false] only if no tick that
    applies [d] after ticks whose cell codes are [rev_codes] (newest
    first) closes a candidate: whatever events the tick records, no
    period [p <= max_period] with [2p <= 1 + length rev_codes] makes
    the last [2p] codes [p]-periodic.  The new code's low 8-bit slot
    is fixed by [d] alone ({!cell_code}: the grant of [Schedule q],
    the invocation of [Invoke (q, _)], the crash of [Crash q]), so a
    period can close only where the code [p] ticks back has that
    slot and the [p - 1] codes newer than it repeat the [p - 1] older
    ones.  The live walk decides
    a leaf with [false] at its parent. *)

val window_period :
  ('inv, 'res) Run_report.t ->
  int option
(** The period of the run's windowed skeleton trace.  [Some p] is
    the lasso certificate: the adversary repeated its cycle at least
    twice inside the window. *)

val certified_violation :
  good:('res -> bool) ->
  ('inv, 'res) Run_report.t ->
  Freedom.t ->
  bool
(** The full bounded claim: the run is bounded-fair, violates the
    (l,k)-freedom point, {e and} carries a lasso certificate. *)

(** {1 Replayable stem + cycle certificates}

    The fair-cycle search ({!Slx_core.Live_explore}) emits its witness
    in this form: a decision script that reaches the cycle (the {e
    stem}) and the cycle's decision script itself.  That is the whole
    certificate — exactly what the store keeps and serve returns.  It
    is {e pumpable}: replaying stem + cycle^m through a fresh cursor
    must apply every decision and end every repetition with every
    process in the status the first repetition ended with, for any
    [m] — the machine-checked evidence that the cycle extends to an
    infinite run.  Such a pump repeats the first repetition's
    {!tick_cells} in every repetition (doc/model.md §7), so the cells
    need no check of their own. *)

type ('inv, 'res) cert = {
  c_n : int;  (** System size the scripts were recorded against. *)
  c_stem : ('inv, 'res) Slx_sim.Driver.decision list;
      (** Reaches the cycle's entry configuration from the initial one. *)
  c_cycle : ('inv, 'res) Slx_sim.Driver.decision list;
      (** One cycle repetition; non-empty. *)
}

type failure = {
  reason : string;  (** Why the certificate does not pump. *)
  repetition : int option;
      (** [Some r] when repetition [r] stopped repeating the first
          while it was applied: a cycle decision not applicable, a
          cycle invocation the workload does not issue there, or a
          process status at its end unlike the first's.  Each of these
          depends only on the configuration that repetition starts
          from and on the statuses after the first, so a pump of
          [stem · cycle^m] with the same cycle fails at repetition
          [r - m] for every [1 <= m <= r - 2] (doc/model.md §7).
          [None] for an argument error and an inapplicable stem
          decision. *)
}

val pump :
  factory:('inv, 'res) Runner.factory ->
  ?ticks:int ref ->
  ?repetitions:int ->
  ?invoke:
    (('inv, 'res) Slx_sim.Driver.view -> Slx_history.Proc.t -> 'inv option) ->
  ('inv, 'res) cert ->
  (('inv, 'res) Run_report.t, failure) result
(** [pump ~factory cert] replays [cert.c_stem] and then [repetitions]
    (default 2, minimum 2) copies of [cert.c_cycle] through a fresh
    cursor — the stem as the cursor's prefix ({!Runner.Cursor.with_}),
    the repetitions decision by decision.  The first repetition is
    the reference: after {e every} later one, each process's status
    must equal its status after the first.  The reference is the
    pump's own replay rather than a recorded copy: the engine is
    deterministic, so the first repetition reproduces the cells the
    search saw.  A process's status changes only by its own decisions,
    and a tick's cell is its decision's process and kind plus a
    response exactly when that process ends the tick idle; so when
    every decision applies and every repetition ends in the reference
    statuses, every repetition's {!tick_cells} equal the first's
    (doc/model.md §7) and are not compared.  [Ok report] has its
    window set to exactly the pumped repetitions, so fairness and the
    freedom point on it are evaluated over the cycle ticks alone, and
    its {!window_period} is [Some].  [Error failure] reports the first
    inapplicable decision or diverging repetition — the certificate
    does not extend to an infinite run by verbatim repetition.

    [invoke], the workload the certificate was searched under, makes
    the pump replay that workload rather than the recorded payloads:
    before each cycle [Invoke (p, inv)] is applied, [invoke view p]
    must return [Some inv] at the current configuration, else the
    result is an [Error] with reason ["workload diverged"].  Without it
    a cycle may re-issue an invocation the workload only issues once
    (a counting workload's next transaction differs from its last),
    and the pumped run is then no run of the declared system. *)

val pump_from :
  ('inv, 'res) Runner.Cursor.t ->
  ?repetitions:int ->
  ?invoke:
    (('inv, 'res) Slx_sim.Driver.view -> Slx_history.Proc.t -> 'inv option) ->
  ('inv, 'res) cert ->
  (('inv, 'res) Run_report.t, failure) result
(** [pump_from cursor cert] is {!pump} on a cursor that already stands
    at [cert.c_stem] followed by one [cert.c_cycle], from the initial
    configuration of its instance: it applies repetitions 2 to
    [repetitions] there and checks them as {!pump} does, with no fresh
    instance and no replay.  {!pump} is a fresh cursor, the stem, the
    first repetition and then this.  The cursor's hooks stay on: a
    caller whose cursor carries a probe {!Runner.Cursor.detach}es
    it first.  The cursor is left after the last applied decision. *)
