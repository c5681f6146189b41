(** Algorithm 1 with the snapshot assumption discharged.

    {!I12} takes the paper at its word and uses an {e atomic} snapshot
    object [R] (one step per scan) as a base object.  This variant
    replaces it with {!Slx_objects.Snapshot_alg} — the wait-free
    snapshot constructed from single-writer registers (Afek et al.) —
    so the only remaining non-register base object is the
    compare-and-swap [C].  The algorithm is {!I12.with_snapshot}
    over that object; nothing else differs.  Scans and updates now
    take many steps,
    changing the interleavings an adversary can produce but none of the
    Lemma 5.4 guarantees; the test suite re-runs the I(1,2)
    experiments against this factory to confirm. *)

val factory :
  vars:int ->
  (Tm_type.invocation, Tm_type.response) Slx_sim.Runner.factory
