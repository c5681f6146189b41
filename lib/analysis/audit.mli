(** The conflict-soundness audit: sweep an implementation's bounded
    decision tree with the sanitizer shadow armed.

    POR ({!Slx_core.Explore}) and the transposition cache prune on
    declared footprints; if an implementation touches a cell its
    footprint never declared, that pruning silently drops real
    interleavings.  An audit certifies, for every run of a bounded
    tree, that declarations over-approximate reality, via three
    independent layers:

    - the {b race detector} ({!Slx_sim.Runtime.touch} against a raising
      shadow) flags the first undeclared access, with a replayable
      decision-script witness;
    - the {b happens-before certifier} ({!Hb}) re-derives the conflict
      relation from observed accesses on a sample of runs and
      cross-checks it against {!Slx_sim.Runtime.commute};
    - the optional {b commutation oracle} executes both orders of
      declared-commuting pending pairs and requires identical
      resulting states and per-process projections.

    Over-declarations (harmless for soundness, costly for reduction)
    are reported as lints, never as failures. *)

open Slx_history
open Slx_sim

type ('inv, 'res) case_def = {
  c_name : string;
  c_group : string;  (** Grouping key for filtering ([base], [tm], …). *)
  c_n : int;
  c_factory : unit -> ('inv, 'res) Runner.factory;
  c_invoke : ('inv, 'res) Driver.view -> Proc.t -> 'inv option;
  c_pp_inv : 'inv -> string;  (** For witness scripts and reports. *)
  c_depth : int;  (** Tree depth at the [`Runtest] bound. *)
  c_depth_ci : int;  (** Tree depth at the [`Ci] bound. *)
  c_max_crashes : int;
  c_waive_opaque : bool;
      (** Waive the opaque-steps lint (for implementations that
          legitimately take opaque steps, e.g. lazy allocators). *)
  c_waive_never_wrote : bool;
      (** Waive the declared-write-never-written lint (for
          conditional writers like CAS at small depths). *)
}

type case = Case : ('inv, 'res) case_def -> case
(** An audit case packs its invocation types away so heterogeneous
    registries ({!Audit_registry}) can be swept uniformly. *)

val case :
  ?group:string ->
  ?depth:int ->
  ?depth_ci:int ->
  ?max_crashes:int ->
  ?waive_opaque:bool ->
  ?waive_never_wrote:bool ->
  name:string ->
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  pp_inv:('inv -> string) ->
  unit ->
  case
(** Defaults: [group "misc"], [depth 6], [depth_ci = depth + 2],
    [max_crashes 0], no waivers. *)

val case_name : case -> string
val case_group : case -> string

type witness = {
  w_violation : Runtime.violation;
  w_script : string list;
      (** The decision prefix reproducing the violation, pretty-printed
          in order; the last decision is the violating grant. *)
  w_replayed : bool;
      (** The script was replayed on a fresh instance and reproduced a
          violation of the same kind/object/direction. *)
}

type lint =
  | Never_touched of int * Runtime.decl_stat
      (** Declared on some step, physically touched on none. *)
  | Never_wrote of int * Runtime.decl_stat
      (** Declared written on some step, physically written on none. *)
  | Opaque_steps of int  (** Steps taken with an opaque footprint. *)

type case_result = {
  cr_name : string;
  cr_group : string;
  cr_depth : int;
  cr_runs : int;  (** Maximal runs swept. *)
  cr_steps : int;
      (** Runtime ticks executed, witness/HB/oracle replays included. *)
  cr_witness : witness option;  (** The race detector's finding. *)
  cr_hb_runs : int;  (** Runs HB-certified (capped by [max_hb_runs]). *)
  cr_hb_edges : int;
  cr_hb_checks : int;
  cr_hb_mismatch : string option;  (** The certifier's finding. *)
  cr_oracle_checks : int;
  cr_oracle_failures : string list;  (** The oracle's findings. *)
  cr_lints : lint list;
}

val case_clean : case_result -> bool
(** No violation witness, no HB mismatch, no oracle failure.  Lints do
    not make a case dirty. *)

type report = { rp_bound : string; rp_results : case_result list }

val clean : report -> bool

val run_case :
  ?bound:[ `Runtest | `Ci ] ->
  ?depth:int ->
  ?oracle:bool ->
  ?detect:bool ->
  ?max_hb_runs:int ->
  ?max_oracle_checks:int ->
  case ->
  case_result
(** Sweep one case's full decision tree (depth from [bound], default
    [`Runtest], unless [depth] overrides), with the incremental
    first-child-in-place strategy of {!Slx_core.Explore} and no
    reductions (an audit wants the unreduced tree).

    [detect] (default [true]) arms the raising shadow; the first
    violation aborts the sweep and becomes the replay-verified
    [cr_witness].  With [detect:false] the sweep runs to completion
    and only the HB certifier reports mis-declarations — the mode the
    tests use to show the two layers agree independently.

    [oracle] (default [false]) enables the commutation oracle;
    [max_hb_runs] (default 64) caps leaf runs HB-certified;
    [max_oracle_checks] (default 256) caps differentially executed
    pairs. *)

val pp_lint : Format.formatter -> lint -> unit
val pp_case_result : Format.formatter -> case_result -> unit
val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> string
(** One-line JSON object:
    [{"bound": …, "clean": …, "cases": [{…}]}]. *)
