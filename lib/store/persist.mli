(** The store policy: how a verification query is answered through
    the on-disk {!Store}, for the CLI's [--store] and the serve
    coordinator alike.  This module owns the verdict <-> record format
    in both directions and the warm/cold policy, and makes no engine
    call: the caller passes the computation in.

    Each query is digested into a [qid] ({!query_key}) binding exactly
    the verdict-relevant identity: the implementation ident, the
    property ident, the system size, the initial shared-state digest
    ({!instance_digest}) and the reduction flags.  Anything that
    cannot change a verdict — whether a transposition table is built,
    tracing — deliberately stays out of the key, so such runs share
    records.

    Answer planning is warm, else cold ({!answer}):

    + {b warm} ({!warm}) — an exact [(qid, depth)] record stored under
      the query's own [max_period]/[pump_ticks] that
      {!served_exploration} / {!served_live} vouch for.  A record they
      refuse is {e rejected}: counted, never served, and superseded by
      the fresh run's record.
    + {b cold} — anything else: no record, a record at another depth,
      or one under other liveness budgets (a different bounded claim,
      not a rejected witness).  The engine explores from scratch,
      exactly as without a store, and {!save} stores its record
      (built by {!exploration_record} / {!live_record} in the process
      that ran the engine).

    The store is committed on every warm hit and every save, and also
    when a cold run is {e interrupted} ([Explore.Interrupted]), so
    partial sessions still pay forward their counters. *)

open Slx_history
open Slx_sim
open Slx_liveness
open Slx_core

type source =
  | Warm  (** Served from an exact stored record (witnesses re-validated). *)
  | Cold  (** Explored from scratch (and stored). *)

val pp_source : Format.formatter -> source -> unit

val instance_digest :
  n:int -> factory:(unit -> ('inv, 'res) Runner.factory) -> int
(** The shared-state digest of a fresh instance's initial
    configuration ({!Slx_sim.Runner.Cursor.shared_digest}) — the
    cheap, workload-independent component that ties a [qid] to the
    implementation's actual initial base objects, so renaming an impl
    ident cannot alias two different implementations. *)

val query_key :
  ident:string ->
  check:string ->
  n:int ->
  registry_digest:int ->
  ?max_crashes:int ->
  ?dpor:bool ->
  ?symmetry:bool ->
  unit ->
  int
(** Digest a query identity into a [qid].  [ident] names the
    implementation + workload (e.g. ["cas"]); [check] names the
    property (e.g. ["consensus-safety"], ["live:obstruction"]) — for
    liveness it must embed the [good]/[point] identity, because a
    verdict is property-specific (doc/model.md §10).  Flag defaults
    mirror the engines' ([max_crashes 0], reductions off).
    {!Slx_serve.Queries.qid} is the one producer that binds a whole
    query record. *)

val exploration_record :
  qid:int ->
  depth:int ->
  ('inv, 'res) Explore.exploration ->
  Store.record
(** The record a computed safety answer is stored as: its verdict (the
    witness in coded form), [stats.runs] and [stats.steps_executed];
    budgets 0. *)

val live_record :
  qid:int ->
  depth:int ->
  max_period:int ->
  pump_ticks:int ->
  ('inv, 'res) Live_explore.result ->
  Store.record
(** The record a computed liveness answer is stored as, under the
    resolved budgets it ran with. *)

val served_exploration :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  check:(('inv, 'res) Run_report.t -> bool) ->
  Store.record ->
  ('inv, 'res) Explore.exploration option
(** The warm answer a stored safety record stands for, the validated
    inverse of {!exploration_record}: zero work counters but the
    stored [runs].  [V_ok] is trusted under the version + qid
    binding; a [V_counterexample] is replayed
    ({!Slx_core.Explore.run_of_codes}) and served only if the
    replayed run fails [check].  [None] — a witness that does not
    reproduce, or a liveness verdict — means the record must not be
    served. *)

val served_live :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  good:('res -> bool) ->
  point:Freedom.t ->
  pump_ticks:int ->
  Store.record ->
  ('inv, 'res) Live_explore.result option
(** The liveness counterpart of {!served_exploration}, the validated
    inverse of {!live_record}: [V_no_fair_cycle] is trusted; a
    [V_lasso] is rebuilt and re-pumped
    ({!Slx_core.Live_explore.validate_cert_codes}).  The budgets are
    not compared here: {!warm} only hands it a record stored under
    the query's own [max_period] and [pump_ticks]. *)

val warm :
  Store.t ->
  qid:int ->
  depth:int ->
  max_period:int ->
  pump_ticks:int ->
  (Store.record -> 'a option) ->
  'a option
(** [warm store ~qid ~depth ~max_period ~pump_ticks served] counts the
    query and answers it from the store if it can.  No record at
    [(qid, depth)], or one under other budgets, is a cold miss
    ([None], not rejected).  Otherwise [served] (a validator above)
    decides: [Some] is counted warm, [None] is counted rejected.
    Nothing is committed: a warm hit changes only the counters, which
    reach disk with the caller's next {!Store.commit} ({!answer}
    commits at once; serve with its next {!save} or at shutdown).
    [max_period]/[pump_ticks] are the resolved liveness budgets, 0 for
    safety. *)

val save : Store.t -> Store.record -> unit
(** Store a computed answer's record (superseding its slot), count it
    cold and commit. *)

val answer :
  Store.t ->
  qid:int ->
  depth:int ->
  max_period:int ->
  pump_ticks:int ->
  served:(Store.record -> 'a option) ->
  record:('a -> Store.record) ->
  (unit -> 'a) ->
  'a * source
(** {!warm} (committing the warm count), else run the computation and
    {!save} its [record].  The
    caller must build [qid] with {!query_key} from the flags the
    computation runs with ({!Slx_serve.Queries.run} does).
    @raise Explore.Interrupted as the computation does; the store's
    counters are committed first. *)
