(** Exhaustive bounded exploration: check a property on {e every}
    schedule, not a sample.

    The paper's statements quantify over all executions; the random and
    adversarial drivers only sample them.  For small systems and short
    horizons the schedule space is enumerable: at every tick the
    scheduler chooses among the ready processes (one atomic step) and
    the idle processes with pending work (an invocation), with an
    optional crash branch.  Implementations are deterministic, so a
    decision prefix determines the configuration it reaches.

    Two engines walk this tree:

    - {!explore} — the incremental engine.  A node's configuration is a
      live {!Slx_sim.Runner.Cursor}; a crash child that ends the run
      is checked from that cursor without one of its own
      ({!Search.crash_child}), the first other child {e extends it in
      place} (one runtime step) and only later siblings replay their
      prefix.
      It walks {!Search.menu}, which places each crash
      directly after its process's last decision (doc/model.md §6).
      Two reductions are opt-in: {e dynamic partial-order
      reduction} ([~dpor], sleep sets woken by observed base-object
      accesses) and {e symmetry reduction} ([~symmetry], orbit pruning
      of interchangeable untouched processes).  The defaults, both
      off, are the unreduced reference walk, and they stay off: a
      symmetry declaration is a claim about the instance that an
      asymmetric caller must not inherit silently.  The product's walk
      ([slx explore], [slx serve] and the [--store] path, all through
      [Slx_serve.Queries]) is DPOR plus symmetry, chosen there and
      nowhere else; DPOR alone and symmetry alone are library
      configurations that the golden corpus and the test suites name
      directly.  Where either reduction is off, a
      {e transposition cache} keyed on the configuration's compact key
      ({!Slx_sim.Runner.Cursor.compact_key}: time, history digest,
      shared base-object digest, per-process status/step-count and
      observation digest) prunes schedule prefixes that reach an
      already-explored configuration, crediting the cached subtree's
      run count instead of descending.  With both on, the
      sleep sets prune nearly every transposition before it is reached,
      so the walk keeps no table (no key, no history digest, no
      entry).  The walk is sequential: independent
      queries parallelize one level up, as separate processes
      ([slx serve --workers]).  It runs on the search kernel it
      shares with {!Live_explore} (cursor bracket, node span, child
      loop, counters, cancellation) and menu; only the leaf check is
      the safety engine's own.
    - {!explore_naive} — the retained reference: replays every prefix
      from scratch at every node of the unrestricted
      {!Search.full_menu}, no cache, no reductions.  The differential
      suite proves the unreduced incremental engine visits exactly its
      runs with their crashes so placed, and the reduced engines the
      same check verdicts and counterexamples; the bench smoke compares
      their [steps_executed].

    Soundness fine print — what each switch assumes of [check]:

    - {e cache} (default on; a table exists only when [dpor] or
      [symmetry] is off): key equality implies identical
      futures (same decision menus, same suffix histories, same run
      counts) up to hash collision on the digest components, and
      identical maximal-run reports {e except for the timing of prefix
      events} ([event_times], grant times) which the key abstracts
      away.  Where a table exists, [check] is
      therefore invoked once per configuration class — pass
      [~cache:false] if a check depends on fine-grained event timing
      rather than on the history, crash set, totals and window.
    - {e dpor} (default off): two steps whose observed accesses
      commute ({!Slx_sim.Runtime.commute}) reach the same
      configuration in either order; sleep sets explore one representative interleaving per
      such commutation class.  The representative's history can differ
      from a pruned run's by swaps of adjacent response events of
      different processes, and the canonical menu moves crash events,
      so [check] must be invariant under both (every history-level
      check in this repository is: each reads only per-process
      projections and operation precedence).
    - {e symmetry} (default off): requires the instance to be
      process-symmetric — all processes run the same [invoke] program
      and [check] is invariant under renaming processes (composed with
      whatever the workload derives from the process id, e.g. distinct
      proposal values).  Untouched processes are then interchangeable
      and only the least-numbered one is activated or crashed.

    With reductions on, [Ok runs] counts the explored {e
    representatives} (one per equivalence class reached), not all
    interleavings; see {!Explore_stats} for the reduction counters.

    The test suites use exploration to promote sampled claims to
    exhaustive ones — e.g. {e agreement and validity hold for CAS
    consensus on every schedule of two processes and ten steps}. *)

open Slx_history
open Slx_sim

type ('inv, 'res) outcome =
  | Ok of int
      (** Every maximal bounded run satisfied the check.  The payload
          counts the {e maximal} runs explored (equivalence-class
          representatives when DPOR/symmetry are on) — interior nodes of
          the decision tree (proper prefixes) are not counted; see
          {!Explore_stats.t.nodes} for those. *)
  | Counterexample of ('inv, 'res) Run_report.t
      (** The failing run with the lexicographically least decision
          script among those the engine explores (in the menu order:
          steps/invocations of processes 1..n, then crashes of
          processes 1..n) — deterministic for any engine configuration:
          cache or not, bounded or not ({!explore}'s can differ from
          {!explore_naive}'s in where a crash stands).  With
          DPOR/symmetry on, "explored" means the reduced tree: the
          witness is then the least {e representative} of the least
          failing equivalence class, possibly a commutation/renaming
          of the unreduced engines' witness. *)

type ('inv, 'res) exploration = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;  (** Work counters; see {!Explore_stats}. *)
  witness_script : ('inv, 'res) Driver.decision list option;
      (** The decision script of the counterexample, when there is one:
          replaying it through [Driver.of_script] reproduces the
          failing run exactly. *)
}

exception Interrupted of Explore_stats.t
(** Raised (from {!explore} and {!Live_explore.search}) when the
    [?cancel] poll came back true: the exploration was abandoned
    mid-walk and the payload carries the partial counters accumulated
    so far.  No verdict is implied. *)

val explore :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  depth:int ->
  ?max_crashes:int ->
  ?cache:bool ->
  ?por:bool ->
  ?dpor:bool ->
  ?symmetry:bool ->
  ?domains:int ->
  ?obs:Slx_obs.Obs.t ->
  ?compact:bool ->
  ?cancel:(unit -> bool) ->
  check:(('inv, 'res) Run_report.t -> bool) ->
  unit ->
  ('inv, 'res) exploration
(** [explore ~n ~factory ~invoke ~depth ~check ()] explores every
    decision sequence of at most [depth] ticks with the incremental
    engine.  [factory] must return a {e fresh} implementation instance
    on each call (one per live cursor).  [invoke view p] supplies the
    invocation an idle process would issue, or [None] if it has no more
    work.  [max_crashes] (default 0) additionally branches on crashing
    each not-yet-crashed process.

    [cache] (default [true]) allows the transposition cache, which is
    built only when [dpor] or [symmetry] is off ([stats.cache_entries]
    is 0 under both).  The table is unbounded: a hit credits exactly
    the subtree it skips, so for a [check] blind to prefix event timing
    (see above) [cache] changes work, never a verdict, witness or run
    count.  [dpor]
    (default [false]) enables sleep-set partial-order reduction ({!Dpor}): each
    cursor carries an observed-access probe
    ({!Slx_sim.Runtime.make_probe}), children inherit the whole sleep
    set as a candidate, each sleeper with the footprint its own step
    observed, and after each edge executes the sleepers whose
    footprints race with the accesses the step {e actually performed}
    are woken (a {e race reversal},
    {!Explore_stats.t.race_reversals}).  A crash child that would
    offer only sleepers ({!Search.crash_child} [Dead]) is decided at its
    parent and never built.  Under every mode a crash child that ends
    the run ([Leaf]) is checked from its parent's cursor, with its
    table lookup where a table is kept, and never built either.
    [symmetry] (default [false]) declares the instance
    process-symmetric and enables orbit pruning of untouched
    processes; see the soundness notes above.

    [domains] exists only for callers that still pass [~domains:1].
    [por] exists only for callers that still pass it: [false], or
    [true] together with [~dpor:true].  [compact] exists only for
    callers that still pass [~compact:true].  Any other value of the
    three raises [Invalid_argument].

    [obs] (default {!Slx_obs.Obs.disabled}) attaches the observability
    bundle: with tracing on, the exploration records typed events (node
    spans, decisions, cache hits, reductions) into a ring for
    Chrome-trace export, and the
    bundle's progress reporter is ticked from the hot loop.  With the
    default bundle every event site costs one branch; verdicts,
    counters (other than [elapsed_ns]/[events_dropped]) and witnesses
    are identical with tracing on or off.  Bundles are single-shot:
    pass a fresh one to each exploration.

    The check runs on maximal runs only (depth reached or no decision
    available); the report's window is the whole run.  When a
    counterexample is found the remaining exploration is abandoned, so
    [stats] then reflects the work done up to the discovery.

    The transposition cache is keyed on flat compact keys: every
    cursor of a search with a table keeps a running digest of its
    history, and a cache key is the int array
    {!Slx_sim.Runner.Cursor.compact_key} with the sleep set's process
    ids as its tail, hashed and compared whole by {!Key_table}.  Key
    equality is configuration-and-sleep-set equality up to the
    collisions of the key's 64-bit history, shared and observation
    digests.

    [cancel] is polled once per visited node, right after the node is
    counted; when it returns [true] the walk stops and {!Interrupted}
    carries the partial stats (so a poll firing on its [k]-th call
    reports [nodes = k]).  The
    poll must be cheap (a [ref] read).
    @raise Interrupted when [cancel] fired.
    @raise Invalid_argument unless [domains = 1], [compact = true]
    and [por] implies [dpor]. *)

val code_of_decision : ('inv, 'res) Driver.decision -> int
(** The persistent int form of a menu decision:
    [(p lsl 2) lor tag] with tag 0 = [Schedule], 1 = [Invoke],
    2 = [Crash].  [Invoke] payloads are not encoded — they are
    re-derived at decode time through the workload's [invoke], which
    is how every engine constructed them in the first place.  The
    [Decision] telemetry event carries this code, and a trace prints
    it as ["S1"], ["I2"], ["C3"] ({!Slx_obs.Trace_export}).
    @raise Invalid_argument on [Stop]. *)

val codes_of_script : ('inv, 'res) Driver.decision list -> int list

val apply_codes :
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  ('inv, 'res) Runner.Cursor.t ->
  int list ->
  ('inv, 'res) Driver.decision list
(** Decode each coded decision against the view it is about to be
    applied to and apply it to the cursor, returning the typed
    decisions applied (root-first).  @raise Invalid_argument if a code
    is stale (e.g. an [Invoke] whose process has no pending invocation
    — a sign the stored entry came from a different workload). *)

val run_of_codes :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  int list ->
  ('inv, 'res) Driver.decision list * ('inv, 'res) Run_report.t
(** Replay a coded script on a fresh instance: the typed decisions
    applied and the resulting maximal-run report (window = run length,
    as the engines report maximal runs).  This is how stored
    counterexample witnesses are re-validated before being trusted. *)

val explore_naive :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  depth:int ->
  ?max_crashes:int ->
  check:(('inv, 'res) Run_report.t -> bool) ->
  unit ->
  ('inv, 'res) exploration
(** The replay-from-scratch reference engine: same tree, same order,
    same outcome and witness as {!explore} with reductions off, but
    every node re-runs its whole decision prefix on a fresh instance
    (and [check] runs on every maximal run).  O(depth) runtime steps
    per node — kept as the differential-testing baseline. *)

val workload_invoke :
  ('inv, 'res) Driver.workload ->
  ('inv, 'res) Driver.view ->
  Proc.t ->
  'inv option
(** Adapt a counting workload to the [invoke] interface: process [p]'s
    next invocation is [workload p (view.invocations p)], the count the
    cursor keeps, so no history is scanned. *)
