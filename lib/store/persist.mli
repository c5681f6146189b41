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
      the same resolved [max_period]/[pump_ticks]).  Positive verdicts
      ([V_ok]/[V_no_fair_cycle]) are trusted under the version + qid
      binding; witnesses never are — a stored counterexample is
      replayed and re-checked, a stored lasso rebuilt and re-pumped
      ({!Slx_core.Live_explore.validate_cert_codes}).  A witness that
      fails re-validation is {e rejected}: counted, never served, and
      overwritten by the fresh run's record.
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
  ?proviso_bound:int ->
  unit ->
  int
(** Digest a query identity into a [qid].  [ident] names the
    implementation + workload (e.g. ["cas"]); [check] names the
    property (e.g. ["consensus-safety"], ["live:obstruction"]) — for
    liveness it must embed the [good]/[point] identity, because a
    verdict is property-specific (doc/model.md §11).  Flag defaults
    mirror the engines' ([max_crashes 0], reductions off,
    [proviso_bound 2]). *)

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
    [qid] with {!query_key} from the same flags it passes here; nothing
    checks that it did ({!Slx_serve.Queries.qid} and the CLI's
    [--store] path each build their own).  Warm hits return synthesized explorations
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
  ?proviso_bound:int ->
  ?cache:bool ->
  ?cache_capacity:int ->
  ?obs:Slx_obs.Obs.t ->
  ?sanitize:bool ->
  ?cancel:(unit -> bool) ->
  unit ->
  ('inv, 'res) Live_explore.result * source
(** Store-backed {!Slx_core.Live_explore.search}.  [max_period] and
    [pump_ticks] are resolved to the engine's defaults {e here} and
    stored per record, because the defaults are depth-derived and a
    warm hit requires both to match the stored values — anything else
    plans cold.
    @raise Explore.Interrupted as the engine does; counters are
    committed first. *)
