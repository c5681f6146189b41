(** Happens-before certifier: cross-checks the conflict relation the
    explorer's partial-order reduction relies on against the accesses
    actually observed during a run.

    The POR soundness argument (doc/model.md §9) needs declared
    footprints to over-approximate real accesses {e pairwise}: whenever
    two steps of different processes touch a common base-object cell
    with at least one write (an {e observed conflict}), their declared
    footprints must not commute.  The race detector
    ({!Slx_sim.Runtime.touch}) certifies the per-step inclusion
    [touched ⊆ declared]; this module certifies the derived pairwise
    property directly from a recorded run, so the two checks agree by
    independent routes.

    Runs are short (bounded by the audit depth), so the cross-check is
    a plain all-pairs sweep; a FastTrack-style vector-clock pass then
    counts the non-redundant happens-before edges induced by the
    observed conflicts — the number the audit report sums into
    {!Slx_analysis.Audit.case_result.cr_hb_edges}. *)

open Slx_history
open Slx_sim

type step = {
  hs_proc : Proc.t;  (** The process granted this scheduling step. *)
  hs_decl : Runtime.footprint;  (** The footprint it declared. *)
  hs_touched : Runtime.access list;
      (** The cell accesses it actually performed (from a recording
          shadow's {!Slx_sim.Runtime.step_log}). *)
}
(** One scheduling step of a recorded run. *)

type cert = {
  hb_steps : int;  (** Steps certified. *)
  hb_edges : int;
      (** Non-redundant happens-before edges (vector-clock joins that
          actually advanced a clock). *)
  hb_checks : int;
      (** Observed-conflict pairs cross-checked against
          {!Slx_sim.Runtime.commute}. *)
}

type mismatch = {
  mm_obj : int;  (** Object both steps touched. *)
  mm_write : bool;  (** Whether the conflicting access pair wrote. *)
  mm_earlier : int;  (** Index of the earlier step in the run. *)
  mm_earlier_proc : Proc.t;
  mm_earlier_decl : Runtime.footprint;
  mm_later : int;  (** Index of the later step. *)
  mm_later_proc : Proc.t;
  mm_later_decl : Runtime.footprint;
}
(** An observed conflict between steps whose declared footprints
    commute — exactly the situation in which POR could have explored
    only one order of a non-commuting pair.  Implies an
    under-declaration the race detector also flags. *)

val observed_conflict : Runtime.access -> Runtime.access -> bool
(** The conflict oracle: same object, at least one write.  This is
    {e the same binding} as {!Slx_core.Dpor.observed_conflict} — the
    certifier checks exactly the relation the DPOR reduction reversed
    races with. *)

val pp_mismatch : Format.formatter -> mismatch -> unit

val certify : n:int -> step list -> (cert, mismatch) result
(** [certify ~n steps] cross-checks one recorded run of an [n]-process
    system.  [Ok cert] means every observed conflict is covered by
    non-commuting declarations; [Error m] reports the first pair that
    is not (in step order). *)

val of_run :
  shadow:Runtime.shadow -> grants:(int * Proc.t) list -> step list
(** Zip a recording shadow's step logs with the run report's grant
    list ({!Slx_sim.Run_report.t}) into certifiable steps.  The shadow
    must have recorded exactly this run: one step log per grant, in
    order.  @raise Invalid_argument if the lengths disagree. *)
