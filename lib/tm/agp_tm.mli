(** Algorithm AGP (Guerraoui–Kapalka): the lock-free versioned-CAS TM,
    and the one copy of its body that the paper's [I(1,2)] ({!I12},
    {!I12_reg}) and {!Mutual_abort_tm} reuse.

    A single compare-and-swap object [C] holds a version number and
    all variable values; a transaction copies it at [start], reads and
    writes a local copy (no atomic step), and commits by CASing in the
    next version.  A failed CAS means some other transaction committed
    — so commits never stop system-wide, giving (1,n)-freedom
    (lock-freedom in commits), the strongest (l,k)-freedom property
    implementable with opacity (Theorem 5.3, positive half, via
    [Fraser 2003] / [Guerraoui–Kapalka 2010]).  Protocol misuse (e.g.
    [read] outside a transaction) answers [Aborted]. *)

val factory :
  vars:int ->
  (Tm_type.invocation, Tm_type.response) Slx_sim.Runner.factory
(** AGP itself over transactional variables [0 .. vars - 1]:
    {!with_hooks} with hooks that do nothing. *)

(** The two places a variant adds steps to the body. *)
type hooks = {
  on_start : proc:Slx_history.Proc.t -> unit;
      (** Runs at [start], before [C] is read. *)
  may_commit : proc:Slx_history.Proc.t -> bool;
      (** The commit guard: runs in [tryC] once the transaction is
          closed and before the CAS; [false] aborts without the CAS. *)
}

val with_hooks :
  vars:int ->
  hooks:(n:int -> hooks) ->
  (Tm_type.invocation, Tm_type.response) Slx_sim.Runner.factory
(** The AGP body with the given hooks.  Each instance creates [C]
    first and then calls [hooks ~n], so the base objects the hooks
    create are registered after [C]. *)
