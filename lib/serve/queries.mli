(** The serve subsystem's query vocabulary: what a verification query
    {e is} on the wire, and how any process — coordinator, worker, or
    the [slx query] client — runs one.

    A query is one {!spec} record, built only by {!make}: the CLI
    parses its flags into one, the serve decoder ({!spec_of_json})
    decodes one, {!qid} keys the store with it and {!run} runs it.
    This is the one place the product's engine configuration is
    chosen: a safety query always walks DPOR plus symmetry, and a
    live query DPOR unless the spec turns it off — so a verdict
    computed by the service, by a worker, or by the CLI with
    [--store] lands on the {e same} store key and they warm-serve
    each other.  Figure 1a's exhaustive panel
    ({!consensus_exhaustive}) is a grid of such queries, so no other
    module in the library or the CLI calls an engine (the CLI's
    [explore --naive] reference oracle aside).

    A task is the unit of work a worker runs, and every computed
    query is exactly one task: a [Full] run of the whole tree, the
    same run the CLI makes without a store.  {!work} executes it and
    returns the result JSON object string a worker writes back, plus
    the answer's store {!record}, built here, in the process that ran
    the engine, by the same function the CLI's [--store] path uses. *)

open Slx_obs

(** {1 Vocabulary} *)

type factory =
  unit ->
  ( Slx_consensus.Consensus_type.invocation,
    Slx_consensus.Consensus_type.response )
  Slx_sim.Runner.factory

val safety_invoke :
  ( Slx_consensus.Consensus_type.invocation,
    Slx_consensus.Consensus_type.response )
  Slx_sim.Driver.view ->
  Slx_history.Proc.t ->
  Slx_consensus.Consensus_type.invocation option
(** Safety workload, {!Slx_consensus.Consensus_type.propose_once}:
    each process proposes [p - 1] once. *)

val live_invoke :
  ( Slx_consensus.Consensus_type.invocation,
    Slx_consensus.Consensus_type.response )
  Slx_sim.Driver.view ->
  Slx_history.Proc.t ->
  Slx_consensus.Consensus_type.invocation option
(** Liveness workload, {!Slx_consensus.Consensus_type.propose_forever}:
    each process proposes [p - 1] whenever it is idle.  Every response
    is good ({!Slx_consensus.Consensus_type.good}). *)

val check :
  ( Slx_consensus.Consensus_type.invocation,
    Slx_consensus.Consensus_type.response )
  Slx_sim.Run_report.t ->
  bool
(** Consensus safety of the run's history. *)

val dec_string :
  (Slx_consensus.Consensus_type.invocation, 'res) Slx_sim.Driver.decision ->
  string
(** A decision as [S1], [I1(0)], [C1] (and [stop]). *)

(** {1 Queries} *)

(** Implementations: [cas] | [register] | [selfish].  Properties:
    [obstruction] | [lock] | [wait] | ["l,k"] with [1 <= l <= k <= n]. *)

type spec = private {
  sp_kind : [ `Explore | `Live ];
  sp_impl : string;  (** cas | register | selfish. *)
  sp_property : string;
      (** Liveness only: obstruction | lock | wait | "l,k".  [""] for
          safety queries. *)
  sp_n : int;
  sp_depth : int;
  sp_crashes : int;
  sp_max_period : int;  (** Resolved (liveness); 0 for safety. *)
  sp_pump : int;  (** Resolved (liveness); 0 for safety. *)
  sp_dpor : bool;
      (** DPOR sleep sets: always on for safety; one level deep, and
          optional, for liveness. *)
}
(** One verification query, from CLI flag to store key to served
    answer.  Every field but [sp_depth], [sp_max_period] and [sp_pump]
    is part of the {!qid}; those three are the per-record slot and
    budgets (doc/model.md §10). *)

val make :
  kind:[ `Explore | `Live ] ->
  impl:string ->
  property:string ->
  n:int ->
  depth:int ->
  crashes:int ->
  max_period:int option ->
  pump:int option ->
  dpor:bool ->
  (spec, string) result
(** The one checked constructor.  [Error] on an unknown
    implementation or malformed freedom point (including one with
    [l > k], which names no point of the grid, or with [k > n], which
    Definition 5.1 cannot tell from [k = n]), or an out-of-range
    bound: depth outside [1, 64], n outside [1, 16], negative crashes,
    a live [max_period] or [pump] below 1.  Liveness budgets resolve
    here ({!Slx_core.Live_explore.budgets}); a safety spec drops the
    property and the budgets and runs DPOR whatever [dpor] says.  A
    safety query runs under symmetry, a liveness query without. *)

val factory : spec -> factory
(** The query's implementation. *)

val point : spec -> Slx_liveness.Freedom.t
(** A liveness query's freedom point.
    @raise Invalid_argument on a safety query. *)

val spec_of_json : Json.t -> (spec, string) result
(** Decode a client query object through {!make}: [kind] ("explore" |
    "live"), [impl], [n], [depth], [crashes], and for liveness
    [property], [max_period], [pump].  An absent member takes its
    default; a present one must be a JSON string ([kind], [impl],
    [property]) or an integer literal (the rest), and any other value
    (a fraction, a quoted number, [null]) is an [Error].  The
    reduction settings are not on the wire: a live query runs DPOR,
    the CLI's default. *)

val spec_to_json : spec -> string

val qid : spec -> int
(** The store key ({!Slx_store.Persist.query_key}) of this query, with
    the implementation's instance digest bound in — the only place a
    query record becomes a store key.  A live property is bound
    through the freedom point it names: [obstruction] and [1,1] give
    one qid.  The reduction bits it hashes are [dpor=true sym=true]
    for every safety query and [sym=false] for a live one. *)

val slot : spec -> int * int * int * int
(** The store slot this query's record fills: its {!qid}, depth,
    [max_period] and pump budget.  Two requests with equal slots are
    the same query (same verdict, same store record), so the serve
    coordinator deduplicates in-flight queries on it. *)

type answer =
  | Safety of
      ( Slx_consensus.Consensus_type.invocation,
        Slx_consensus.Consensus_type.response )
      Slx_core.Explore.exploration
  | Live of
      ( Slx_consensus.Consensus_type.invocation,
        Slx_consensus.Consensus_type.response )
      Slx_core.Live_explore.result

val run :
  ?store:Slx_store.Store.t ->
  ?obs:Slx_obs.Obs.t ->
  ?cancel:(unit -> bool) ->
  spec ->
  answer * Slx_store.Persist.source option
(** Run a query on the engine.  With [store], the same engine call
    runs inside {!Slx_store.Persist.answer} under {!qid}: a warm
    record answers instead (zero work counters, the stored runs), a
    computed answer is stored as its {!record}, and the source is
    returned.  The optional arguments cannot change a verdict: the
    [obs] bundle and [cancel].  Whether a
    transposition table is built is the engine's decision.
    @raise Slx_core.Explore.Interrupted when [cancel] fired. *)

val consensus_exhaustive :
  ?n:int -> ?depth:int -> unit -> Slx_core.Figure1.grid
(** Figure 1a by {e exhaustive fair-cycle search}, one {!run} per
    (l,k) point: the live query [impl = "register"], [property =
    "l,k"], [crashes = n - 1] (the obstruction-style points' solo
    windows), default budgets and DPOR off — [slx live-explore
    --no-dpor], because the one-level DPOR tree can miss a lasso.  A
    point is {b Excluded} iff the query answers a lasso, else {b
    Not_excluded}; the grid fields no adversary or positive runs.
    Defaults [n = 2], [depth = 10]: big enough for Theorem 5.2's
    split, small enough to exhaust.  Ledger block E20 cross-checks it
    cell by cell against {!Slx_core.Figure1.consensus}.
    @raise Invalid_argument when {!make} refuses [n] or [depth]. *)

val record : spec -> answer -> Slx_store.Store.record
(** The store record of a computed answer to this query
    ({!Slx_store.Persist.exploration_record} /
    {!Slx_store.Persist.live_record} under {!qid}, the query's depth
    and resolved budgets). *)

type mode = Full  (** The whole depth-[sp_depth] tree. *)

val work :
  ?progress:Progress.t ->
  spec ->
  string * Slx_store.Store.record
(** A worker's whole function: execute one task in-process ({!run}
    without a store) and return its result line ({!run_task}) and the
    computed answer's {!record}. *)

val run_task :
  ?progress:Progress.t ->
  spec ->
  mode ->
  string
(** The result half of {!work}: the task's result as a one-line JSON
    object (no trailing newline):

    - safety: [{"outcome": "ok" | "counterexample", "runs", "digest",
      "steps", "steps_replayed", "witness": [codes]}]
    - liveness: [{"outcome": "no_fair_cycle" | "lasso", "stem",
      "cycle", "period", "runs", "steps", "steps_replayed"}]

    [steps] is the engine's [steps_executed]; [steps_replayed] is the
    part of it spent replaying decision prefixes to re-establish
    sibling configurations (the numerator of the replay share).
    [progress] is handed to the engine — pass
    a JSON-lines reporter on stdout and the task's heartbeats
    interleave with the final line, which is distinguishable by its
    ["outcome"] member. *)

val error_result : string -> string
(** [{"outcome": "error", "message": ...}] — the uniform failure form
    of a task, for protocol-level errors (a task line that does not
    parse, a spec the decoder refuses). *)

val warm_result : spec -> Slx_store.Store.record -> string option
(** Serve a stored record of this query without exploring, through the
    store's own validators ({!Slx_store.Persist.served_exploration} /
    {!Slx_store.Persist.served_live}), as the warm result JSON.
    [None] means the record failed validation.  The budgets are the
    policy's to compare: pass it to {!Slx_store.Persist.warm}, which
    only hands it a record stored under the query's own. *)
