(** Store-backed exploration: the policy layer between the engines
    ({!Slx_core.Explore}, {!Slx_core.Live_explore}) and the on-disk
    {!Store}.

    Each query is digested into a [qid] ({!query_key}) binding exactly
    the verdict-relevant identity: the implementation ident, the
    property ident, the system size, the initial shared-state digest
    ({!instance_digest}) and the reduction flags.  Anything that
    cannot change a verdict — cache on/off, capacity — deliberately
    stays out of the key, so tuning runs share records.

    Answer planning is warm, else cold:

    + {b warm} — an exact [(qid, depth)] record (for liveness: with
      the same resolved [max_period]/[pump_ticks]) that
      {!served_exploration} / {!served_live} vouch for.  A record they
      refuse is {e rejected}: counted, never served, and overwritten
      by the fresh run's record.
    + {b cold} — anything else, a record at another depth included:
      the engine explores from scratch, exactly as without a store.

    Every cold answer stores its record (superseding the slot) before
    returning; the store is committed even when the run is
    {e interrupted} ([?cancel] / SIGINT), so partial sessions still
    pay forward their counters. *)

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
  ?invoke_order:bool ->
  unit ->
  int
(** Digest a query identity into a [qid].  [ident] names the
    implementation + workload (e.g. ["cas"]); [check] names the
    property (e.g. ["consensus-safety"], ["live:obstruction"]) — for
    liveness it must embed the [good]/[point] identity, because a
    verdict is property-specific (doc/model.md §11).  Flag defaults
    mirror the engines' ([max_crashes 0], reductions off).
    {!Slx_serve.Queries.qid} is the one producer that binds a whole
    query record. *)

val record :
  qid:int ->
  depth:int ->
  max_period:int ->
  pump_ticks:int ->
  runs:int ->
  steps:int ->
  Store.verdict ->
  Store.record
(** The record a computed verdict is stored as — by this module's cold
    path and by the serve coordinator alike.  [max_period]/[pump_ticks]
    are the resolved liveness budgets, 0 for safety. *)

val served_exploration :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  check:(('inv, 'res) Run_report.t -> bool) ->
  Store.verdict ->
  ('inv, 'res) Explore.exploration option
(** The warm answer a stored safety verdict stands for (zero work
    counters): [V_ok] is trusted under the version + qid binding; a
    [V_counterexample] is replayed ({!Slx_core.Explore.run_of_codes})
    and served only if the replayed run fails [check].  [None] — a
    witness that does not reproduce, or a liveness verdict — means
    the record must not be served. *)

val served_live :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  good:('res -> bool) ->
  point:Freedom.t ->
  pump_ticks:int ->
  Store.verdict ->
  ('inv, 'res) Live_explore.result option
(** The liveness counterpart of {!served_exploration}:
    [V_no_fair_cycle] is trusted; a [V_lasso] is rebuilt and re-pumped
    ({!Slx_core.Live_explore.validate_cert_codes}).  Callers apply it
    only to a record stored under the query's own [max_period] and
    [pump_ticks]. *)

val run_explore :
  store:Store.t ->
  qid:int ->
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  depth:int ->
  ?max_crashes:int ->
  ?cache:bool ->
  ?cache_capacity:int ->
  ?dpor:bool ->
  ?symmetry:bool ->
  ?obs:Slx_obs.Obs.t ->
  ?sanitize:bool ->
  ?cancel:(unit -> bool) ->
  check:(('inv, 'res) Run_report.t -> bool) ->
  unit ->
  ('inv, 'res) Explore.exploration * source
(** Store-backed {!Slx_core.Explore.explore}.  The caller must build
    [qid] with {!query_key} from the same flags it passes here
    ({!Slx_serve.Queries.run} does).  Warm hits return synthesized explorations
    (zero work counters; [runs] and the witness restored from the
    record).  The exploration and the store file are consistent on
    return: the record for this [(qid, depth)] reflects this answer.
    @raise Explore.Interrupted as the engine does; the store's
    counters are committed first. *)

val run_live :
  store:Store.t ->
  qid:int ->
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
  ?cache_capacity:int ->
  ?obs:Slx_obs.Obs.t ->
  ?sanitize:bool ->
  ?cancel:(unit -> bool) ->
  unit ->
  ('inv, 'res) Live_explore.result * source
(** Store-backed {!Slx_core.Live_explore.search}.  [max_period] and
    [pump_ticks] are resolved to the engine's defaults
    ({!Slx_core.Live_explore.budgets}) {e here} and
    stored per record, because the defaults are depth-derived and a
    warm hit requires both to match the stored values — anything else
    plans cold.
    @raise Explore.Interrupted as the engine does; counters are
    committed first. *)
