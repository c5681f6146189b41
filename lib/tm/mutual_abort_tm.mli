(** An obstruction-free — but not lock-free — opaque TM.

    AGP ({!Agp_tm}) sits at (1,n)-freedom: some transaction always
    wins the publishing CAS.  This TM shows the other classical point
    of the TM liveness landscape, in the spirit of DSTM's aggressive
    contention management (Herlihy–Luchangco–Moir–Scherer, the paper's
    [21]): a shared {e writer} register is overwritten at every
    [start], and [tryC] aborts unless the caller is still the latest
    starter.  Two processes that keep starting transactions into each
    other abort {e each other} forever — mutual abort, no system-wide
    progress — so lock-freedom ((1,2)-freedom) fails, witnessed by
    {!Tm_adversary.run_alternating_starts}.  A transaction running
    without step contention still commits: (1,1)-freedom
    (obstruction-freedom) holds.  Publication still goes through the
    versioned CAS, so opacity is preserved.

    The body is {!Agp_tm.with_hooks}; this module adds only the
    writer register, written by the start hook and read by the commit
    guard. *)

val factory :
  vars:int ->
  (Tm_type.invocation, Tm_type.response) Slx_sim.Runner.factory
