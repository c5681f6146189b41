(** Liveness model checking: exhaustive search for fair,
    progress-free cycles (lassos) in the bounded configuration graph.

    The paper's negative results (Theorems 5.2/5.3) assert that an
    adversary can drive an implementation into an infinite {e fair} run
    with no progress.  The adversary games sample such runs; this
    module {e searches} for them: it walks the same bounded decision
    tree as {!Explore}, on the same search kernel (nodes are
    {!Slx_sim.Runner.Cursor} configurations, edges scheduler
    decisions), looking for a reachable
    cycle that is

    - {b fair} — every non-crashed process that is not {e blocked}
      (idle with no further work from [invoke]) takes a scheduling
      grant on the cycle, the finitization contract of doc/model.md §2;
    - {b progress-free} — pumping the cycle forever violates the
      pluggable (l,k)-freedom predicate
      ({!Slx_liveness.Freedom.violated_on_cycle}): the processes
      granted on the cycle are the ones taking infinitely many steps,
      and the [good] responses on the cycle are the ones delivered
      infinitely often.

    {b The cycle quotient.}  Raw configurations never recur along a
    run — time, histories and step counts grow monotonically, and
    implementations allocate fresh base objects (the register
    consensus allocates per-round registers) — so cycles are detected
    in the abstract-trace quotient of {!Slx_liveness.Lasso}: a node
    closes a candidate cycle of period [p] when the per-tick cells
    ({!Slx_liveness.Lasso.tick_cells}: grant skeleton + event
    skeletons, carried as {!Slx_liveness.Lasso.cell_code} ints) of its
    last [2p] ticks are [p]-periodic, i.e. two full
    repetitions are observed, exactly the existing lasso-certificate
    criterion.  A candidate only becomes a verdict after {e
    certificate validation}: the stem + cycle scripts are replayed
    through a fresh instance with the cycle pumped until at least
    [pump_ticks] extra ticks are covered
    ({!Slx_liveness.Lasso.pump}), which must apply every decision and
    end every repetition with every process in the status the first
    ended with — the cells then repeat too, so they are not compared —
    and yield a report whose starved processes are all blocked and
    which violates the freedom point.  A leaf's first pump
    goes on from the leaf's own cursor, which already stands at stem +
    cycle ({!Slx_liveness.Lasso.pump_from}); a candidate whose cycle
    continues one an ancestor's pump saw fail at repetition [r >= 3],
    fewer than [r - 1] repetitions later, is rejected without pumping,
    since replay is deterministic (doc/model.md §7).  The pump replays the
    workload: every cycle invocation must be the one [invoke] issues
    at that point of the pumped run, so a certificate is a run of the
    declared workload, not of payloads recorded once.  Pumping is what
    rejects the spurious periodic suffixes of runs that merely {e
    pass through} a repetitive phase before responding (e.g. a solo
    register-consensus process mid-round, which decides within a
    bounded number of further grants); see doc/model.md §7 for the
    soundness argument and its honest limits.

    The walk is depth-first in the canonical menu order of {!Explore}
    ({!Search.menu}: each crash directly after its process's
    last decision, or in an ascending root prefix), so the emitted
    certificate is deterministic: the lex-least stem+cycle script
    among the validated candidates, independent of caching.  The menu
    is {e invoke-ordered}: where several idle
    processes could be invoked, only the least one's invocation is
    offered; doc/model.md §7 states why that keeps a representative of
    every fair periodic run, the fairness assumption it rests on, and
    its slack under a depth bound.  A crash child whose menu is empty
    ends its run and closes no candidate (a crash cell cannot repeat),
    so it is counted from its parent's cursor, as {!Explore.explore}
    checks one ({!Search.crash_child} [Leaf]), and never built.  So is
    a step or invocation leaf at the depth bound whose tick closes no
    candidate whatever it records ({!Slx_liveness.Lasso.may_close},
    from the parent's cell codes and the decision).  The
    transposition cache is keyed
    on the configuration's compact key {e plus} the last
    [2 * max_period] abstract cells — the context that determines
    every candidate in a subtree — and stores only completed
    lasso-free subtrees, so hits can never mask the least witness.
    Only nodes with [2 * max_period < len < depth]
    are keyed: a shallower key spells out the node's whole script, so
    it can never hit, and leaves are not worth a key (doc/model.md §7).

    {b Reductions.}  Naive sleep sets are unsound for cycle detection
    — sleep sets are path-dependent, and pruning by them can defer a
    transition forever around a cycle (the classic "ignoring
    problem"), dropping every representative of a periodic run.  The
    [dpor] reduction keeps its sleep sets {e one level} deep: at node
    [P·d], a process whose step was explored from [P] as an earlier
    sibling of [d], and commutes with [d]'s observed step ({!Dpor}),
    is not offered; every child of [P·d] drops it from its sleep set.
    A node whose every enabled decision is asleep force-wakes them all
    instead of truncating the path.  So no sleep set outlives one
    edge: a transition pruned at a node was explored from its parent,
    and no inherited sleep set defers it further along a retained
    cycle.  The transposition key carries the sleep set so distinct
    reduced subtrees never share an entry.
    This does {e not} make the reduced tree keep
    every fair periodic run under a depth bound: the representative
    of a lasso the full tree holds can lie deeper than [depth], so a
    [dpor] search can answer [No_fair_cycle] where the unreduced
    search finds a lasso (doc/model.md §7, EXPERIMENTS E37); the
    search with [dpor] off is the exhaustive reference.  Certificate
    validation (pumping) remains the unconditional backstop against
    false positives. *)

open Slx_history
open Slx_sim
open Slx_liveness

type ('inv, 'res) outcome =
  | Lasso of ('inv, 'res) Lasso.cert
      (** A fair, progress-free, pump-validated cycle was found; the
          certificate replays through {!Slx_liveness.Lasso.pump}. *)
  | No_fair_cycle
      (** No candidate survived validation anywhere in the bounded
          tree: every fair cycle of the instance (within [depth],
          [max_period], the crash budget) makes progress. *)

type ('inv, 'res) result = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;
      (** Work counters.  [cycles_examined]/[fair_cycles] count the
          periodic candidates and the fair violating ones;
          [invoke_order_prunes] counts invocations pruned by the
          invoke order; under [dpor], [por_prunes] counts slept
          decisions, [race_reversals] the sleepers a child's step
          wakes by a race, and [proviso_wakes] the other sleepers
          dropped when the walk leaves their node, plus the ones a
          node whose every decision is asleep force-wakes — both
          only below the depth bound, where a leaf settles no sleep
          set; pumped steps are included in [steps_executed]. *)
}

val search :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  good:('res -> bool) ->
  point:Freedom.t ->
  depth:int ->
  ?max_crashes:int ->
  ?max_period:int ->
  ?pump_ticks:int ->
  ?invoke_order:bool ->
  ?dpor:bool ->
  ?cache:bool ->
  ?obs:Slx_obs.Obs.t ->
  ?compact:bool ->
  ?cancel:(unit -> bool) ->
  unit ->
  ('inv, 'res) result
(** [search ~n ~factory ~invoke ~good ~point ~depth ()] explores every
    decision sequence of at most [depth] ticks (menu and parameters as
    in {!Explore.explore}; [max_crashes] defaults to 0 — pass at least
    [n - 1] to give obstruction-style points their solo windows) and
    returns the first validated fair progress-free lasso, or
    [No_fair_cycle] after exhausting the tree.

    [max_period] (default ceil([depth / 2]), the largest period with
    two full repetitions observable within the depth bound — detection
    at a node of length [len] needs [2 * period <= len]) bounds the
    candidate cycle length in ticks.  [pump_ticks] (default
    [4 * depth]) is the validation budget: every candidate's cycle is
    pumped until at least that many extra ticks are covered before it
    is believed — it must exceed the implementation's longest
    good-response latency or a pre-response phase can masquerade as a
    cycle.  [invoke_order] is ignored: the walk is always
    invoke-ordered (see module doc); the argument remains only for
    callers that still pass it.  [dpor] (default [false]) enables the
    one-level DPOR sleep-set reduction (see module doc).

    [cache] (default [true]) enables the suffix-keyed transposition
    cache, an unbounded {!Key_table}.  It engages
    only when [depth > 2 * max_period + 1], the only searches with a
    node that can hit (see module doc); otherwise, as at the default
    [max_period], nothing is built and every counter equals a
    [~cache:false] run's.  A hit credits the cached subtree's run
    count to [stats.runs], so [runs] is the same with the cache on or
    off; [nodes] counts the nodes
    visited, which a hit lowers.

    [obs] (default {!Slx_obs.Obs.disabled}) attaches the observability
    bundle, as in {!Explore.explore}: node spans, decisions, cache
    hits, invoke-order prunes, one [Cycle_candidate] instant per
    candidate (tagged fair-and-violating or not) and one pump span per
    validation attempt, closed with its verdict on every path.
    Verdicts and counters (other than [elapsed_ns]/[events_dropped])
    are identical with tracing on or off.

    The suffix cache is keyed on flat compact keys, as in
    {!Explore.explore}: the cursor's compact key with its history
    digest, the abstract-trace cells as the int codes the walk carries
    ({!Slx_liveness.Lasso.cell_code}) and the sleepers' process ids,
    in one int array per key.  When the cache does not engage the
    cursors are keyless and keep no digest either.  Cells become
    strings only in a certificate.

    [compact] exists only for callers that still pass [~compact:true];
    [~compact:false] raises [Invalid_argument].

    [cancel] behaves as in {!Explore.explore}: it is polled per node,
    aborting with {!Explore.Interrupted} carrying partial stats.
    @raise Explore.Interrupted when [cancel] fired.
    @raise Invalid_argument unless [compact = true], or when the walk
    reaches a decision of a process above 31 (the cell code's limit;
    the CLI and serve cap [n] at 16). *)

val budgets :
  depth:int -> max_period:int option -> pump_ticks:int option -> int * int
(** [(max_period, pump_ticks)] with {!search}'s depth-derived defaults
    filled in: ceil([depth / 2]) (at least 1) and [4 * depth].  The
    store and the serve vocabulary resolve budgets with this, so a
    record's budgets are the ones the search ran under. *)

val validate_cert_codes :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  good:('res -> bool) ->
  point:Freedom.t ->
  pump_ticks:int ->
  stem:int list ->
  cycle:int list ->
  unit ->
  ('inv, 'res) Lasso.cert option
(** Re-validate a stored lasso witness from its coded stem and cycle
    scripts ({!Explore.code_of_decision}): decode them against a
    fresh instance, and run on the decoded certificate the exact
    acceptance test of the exhaustive search — pump the cycle
    for [max 2 (ceil (pump_ticks / period))] repetitions, then require
    the starved set to be blocked and the freedom predicate violated
    (a pump that passes has a periodic window).  [Some cert] is the
    rebuilt, pump-validated certificate; [None] means the stored
    witness does not reproduce (stale codes, changed workload, a cycle
    whose invocations the workload does not re-issue, or a forged
    store) and must not be served — {!Slx_store.Persist} then falls
    back to a cold search. *)

val certify_run :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  driver:('inv, 'res) Driver.t ->
  good:('res -> bool) ->
  point:Freedom.t ->
  max_steps:int ->
  ?max_period:int ->
  ?pump_ticks:int ->
  unit ->
  ('inv, 'res) result
(** Cross-validation bridge for instances too deep to search
    exhaustively (a TM transaction cycle spans tens of ticks): play a
    single driver — typically one of the paper's adversaries — for
    [max_steps] ticks, then run the {e same} candidate detection and
    certificate validation on the recorded run's trace suffix.
    [Lasso cert] means the adversary's sampled win has been promoted
    to a replayable, pumpable certificate of the same form the
    exhaustive search emits (with blocked processes conservatively
    assumed absent: every correct process must be granted on the
    cycle).  A driver is no workload, so the pump replays the
    driver's recorded invocation payloads verbatim (doc/model.md §7
    states what that does and does not prove).  Defaults: [max_period = max_steps / 4],
    [pump_ticks = max 64 (2 * max_period)]. *)
