(** The serve subsystem's query vocabulary: what a verification query
    {e is} on the wire, and how any process — coordinator, worker, or
    the [slx query] client — runs one.

    A query names an implementation and property from the vocabulary
    below, which the [slx explore] / [slx live-explore] subcommands
    also use (consensus implementations [cas]/[register]/[selfish];
    the freedom-point grammar), with the CLI's default reduction flags
    pinned — so a verdict computed by the service, by
    a worker, or by the CLI with [--store] lands on the {e same}
    store key ({!qid}) and they warm-serve each other.

    A task is the unit of work leased to a worker, and every computed
    query is exactly one task: a [Full] run of the whole tree, the
    same run the CLI makes without a store.  {!run_task} executes it
    and returns the result as a JSON object string, the exact line a
    worker writes back. *)

open Slx_obs

(** {1 Vocabulary} *)

type factory =
  unit ->
  ( Slx_consensus.Consensus_type.invocation,
    Slx_consensus.Consensus_type.response )
  Slx_sim.Runner.factory

val factory_of_impl : string -> (factory, string) result
(** [cas] | [register] | [selfish]; anything else is
    [Error "unknown implementation \"...\""]. *)

val point_of_string : n:int -> string -> (Slx_liveness.Freedom.t, string) result
(** [obstruction] | [lock] | [wait] | ["l,k"] with [l, k >= 1];
    anything else is [Error "unknown property \"...\""]. *)

val safety_invoke :
  ( Slx_consensus.Consensus_type.invocation,
    Slx_consensus.Consensus_type.response )
  Slx_sim.Driver.view ->
  Slx_history.Proc.t ->
  Slx_consensus.Consensus_type.invocation option
(** Safety workload: each process proposes [p - 1] once. *)

val live_invoke :
  ( Slx_consensus.Consensus_type.invocation,
    Slx_consensus.Consensus_type.response )
  Slx_sim.Driver.view ->
  Slx_history.Proc.t ->
  Slx_consensus.Consensus_type.invocation option
(** Liveness workload: each process proposes [p - 1] forever. *)

val good : Slx_consensus.Consensus_type.response -> bool
(** Every consensus response is good. *)

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

type spec = {
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
}

val spec_of_json : Json.t -> (spec, string) result
(** Parse a client query object: [kind] ("explore" | "live"), [impl],
    [n], [depth], [crashes], and for liveness [property],
    [max_period], [pump] — unknown implementations, malformed freedom
    points and out-of-range bounds (depth outside [1, 64], n outside
    [1, 16], negative crashes, a live [max_period] or [pump] below 1)
    are errors, so a bad query dies at the door instead of inside a
    worker.  Liveness defaults resolve
    here ([max_period = ceil(depth/2)], [pump = 4*depth]). *)

val spec_to_json : spec -> string

val key : spec -> string
(** Canonical dedup key: two requests with equal keys are the same
    query (same verdict, same store record). *)

val qid : spec -> (int, string) result
(** The store key ({!Slx_store.Persist.query_key}) of this query,
    with the implementation's instance digest and the pinned default
    flags bound in.  [Error] on unknown implementation/property. *)

type mode = Full  (** The whole depth-[sp_depth] tree. *)

val run_task :
  ?cancel:(unit -> bool) ->
  ?progress:Progress.t ->
  spec ->
  mode ->
  string
(** Execute one task in-process and return its result as a one-line
    JSON object (no trailing newline):

    - safety: [{"outcome": "ok" | "counterexample", "runs", "digest",
      "steps", "steps_replayed", "witness": [codes]}]
    - liveness: [{"outcome": "no_fair_cycle" | "lasso", "stem",
      "cycle", "period", "runs", "steps", "steps_replayed"}]
    - [{"outcome": "cancelled", "steps"}] when [cancel] fired;
    - [{"outcome": "error", "message"}] on a bad spec.

    [steps] is the engine's [steps_executed]; [steps_replayed] is the
    part of it spent replaying decision prefixes to re-establish
    sibling configurations (the numerator of the replay share).
    [progress] is handed to the engine — pass
    a JSON-lines reporter on stdout and the task's heartbeats
    interleave with the final line, which is distinguishable by its
    ["outcome"] member. *)

val error_result : string -> string
(** [{"outcome": "error", "message": ...}] — the uniform failure form
    of {!run_task}, exported for protocol-level errors (a task line
    that does not even parse). *)

val warm_result : spec -> Slx_store.Store.record -> string option
(** Serve a stored record for exactly this query without exploring:
    positive verdicts are trusted (the store's version header and the
    qid vouch for them), witnesses are re-validated by replay
    ({!Slx_core.Explore.run_of_codes} /
    {!Slx_core.Live_explore.validate_cert_codes}).  [None] means the
    record must not be served (failed validation, wrong budgets) and
    the query has to be computed. *)
