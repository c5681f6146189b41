(** The cooperative shared-memory runtime.

    Implementations of shared objects (Section 2 of the paper) are sets
    of per-process algorithms that interact only through atomic
    primitives on base objects.  In this runtime an algorithm is
    ordinary OCaml code; every base-object access is wrapped in
    {!atomic}, which performs an OCaml effect.  The scheduler (the
    {!Runner}) traps the effect, suspends the process, and later
    resumes it — one base-object access per scheduling step, exactly
    the asynchronous step semantics of the paper.

    Algorithms must never share mutable state except through {!atomic};
    the base objects of {!Slx_base_objects} obey this contract. *)

val atomic : (unit -> 'a) -> 'a
(** [atomic f] performs one atomic step on shared memory: it suspends
    the calling process until the scheduler grants it a step, then runs
    [f] (which should be a single base-object primitive) and resumes
    with its result.

    Must be called from code running under {!spawn}; otherwise raises
    [Effect.Unhandled].  Called while an atomic step is already
    executing (a {e nested} atomic), it runs [f] inline, as part of the
    same step. *)

(** {1 Access footprints}

    The partial-order reduction of {!Slx_core.Explore} needs to know
    which steps {e commute}: two atomic steps that touch different
    base objects (or both merely read the same one) can be granted in
    either order with the same resulting configuration.  A footprint
    is what a step {e observed}: the base objects it touched through
    {!touch}, and which of them it wrote.

    The exploration engines make millions of commutation queries, so
    a footprint is held as conflict bitmasks.  Registry-issued object
    ids are small dense positive ints (and orphan ids negative), so
    almost every footprint fits two machine words of presence/write
    bits; ids outside [0, 61] spill into a normalized access list, and
    since the two id ranges are disjoint a bit access can never
    conflict with a spill access.  Each commutation check is a couple
    of word operations. *)

type access = { obj : int; write : bool }
(** One access: the base object with id [obj], written iff [write]. *)

type footprint = private {
  m_opaque : bool;
      (** Unknown: conflicts with every other step.  An opaque
          footprint has no bits and no spill. *)
  m_r : int;  (** Presence bits: object [i] is read or written. *)
  m_w : int;  (** Write bits: object [i] is written (within [m_r]). *)
  m_rest : access list;
      (** The accesses with ids outside [0, 61]: one per object, sorted
          by id. *)
}
(** The footprint of an atomic step, at object granularity: a step on
    a multi-slot object (e.g. a snapshot segment update) touches the
    whole object.  Private, so that every footprint is in the canonical
    form the functions below build, and structural equality is
    footprint equality. *)

val opaque : footprint
(** The unknown footprint: commutes with nothing (sound default). *)

val of_accesses : access list -> footprint
(** The footprint touching exactly these accesses (an object listed
    twice is written iff some entry writes it).  [of_accesses []]
    touches nothing and commutes with every footprint but {!opaque}. *)

val accesses : footprint -> access list option
(** The accesses of a footprint ([None] for {!opaque}), in canonical
    order: one per object, sorted by id (the negative spill ids, then
    the bit ids, then the ids past 61). *)

val commute : footprint -> footprint -> bool
(** Whether two steps with these footprints commute: neither is
    {!opaque}, and no object is accessed by both with at least one of
    the two accesses a write.  Two word operations, plus a walk of the
    spill lists when both have one. *)

val touch : obj:int -> write:bool -> unit
(** Called by instrumented base-object primitives at every physical
    cell access, from inside the atomic step that makes it.  It marks
    a written object for the registry's incremental digest and, under
    a probe, records the access in the step's observed footprint.
    @raise Invalid_argument with no atomic step in flight: shared state
    is accessed only by atomic steps, so a crash, which unwinds a
    process between steps, touches none (doc/model.md §6). *)

(** {2 Dynamic-conflict probe}

    The source-set DPOR of {!Slx_core.Explore} and
    {!Slx_core.Live_explore} computes race reversals from {e observed}
    accesses — what an executed step physically touched in this
    configuration.  A probe records, per completed atomic step, the
    step's observed footprint: exactly its {!touch}es.  Install one
    per engine with {!with_registry} [~probe] (or
    [Runner.Cursor.with_ ~probe]); after each [Schedule] grant the
    engine reads the last step's observation. *)

type probe

val make_probe : unit -> probe
(** A fresh probe.  Until a step completes under it,
    {!probe_last_observed} is the empty footprint and {!probe_steps}
    is 0. *)

val probe_steps : probe -> int
(** Atomic steps completed under the probe so far — lets an engine
    check that a grant actually executed a step since it last read the
    probe. *)

val probe_last_observed : probe -> footprint
(** The observed footprint of the last completed step, built at step
    end from its {!touch}es.  The DPOR engines race-check it against
    sleepers' observed footprints with {!commute}. *)

exception Killed
(** Raised inside a process's computation when the process is crashed
    by the scheduler, to unwind its stack.  Algorithms must not catch
    it (a [try ... with _ ->] in algorithm code would swallow crashes;
    use specific exception handlers instead). *)

(** The scheduling status of a process. *)
type status =
  | Idle     (** No operation in progress. *)
  | Ready    (** Suspended at an atomic step, waiting for a grant. *)
  | Crashed  (** Crashed; will never take another step. *)

(** A handle on one process's suspended computation.  A [Ready] cell
    holds the continuation of its pending atomic action together with
    the action itself, with no closures around them:
    {!grant} and {!crash} clear the slot before resuming or
    discontinuing the continuation, which is how each continuation is
    used at most once.  The effect handler the process runs under
    belongs to the cell, built at its first {!spawn} and reused by
    every later one. *)
type cell

val make_cell : ?keyed:bool -> unit -> cell
(** A fresh cell, initially [Idle].  A cell made with [~keyed:false]
    (default [true]) folds no result into its observation digest
    ({!obs}): it belongs to a cursor that keys no configuration. *)

val status : cell -> status

val spawn : cell -> (unit -> unit) -> unit
(** [spawn cell comp] starts computation [comp] for the process owning
    [cell].  [comp] runs immediately up to its first {!atomic} call (or
    to completion if it makes none); the cell becomes [Ready] (or
    [Idle] on completion).

    @raise Invalid_argument if the cell is not [Idle]. *)

val grant : cell -> unit
(** [grant cell] lets the suspended process execute its pending atomic
    action and run to its next {!atomic} call (or to completion).  On a
    keyed cell it folds the action's result hash into {!obs}; a keyless
    one hashes nothing.

    @raise Invalid_argument if the cell is not [Ready]. *)

val crash : cell -> unit
(** [crash cell] crashes the process: its computation is unwound with
    {!Killed} and the cell becomes [Crashed].  Idempotent on crashed
    cells; legal on idle cells (the process just never steps again). *)

(** {1 Configuration digests}

    The exploration engine ({!Slx_core.Explore}) prunes schedule
    prefixes that reach the same configuration.  A configuration has
    two opaque components this module makes observable as digests:

    - the {e local state} of each process, hidden inside its suspended
      continuation.  Because algorithm code between atomic steps is
      purely local, that state is a deterministic function of the
      process's invocations (already in the history) and of the results
      of its atomic actions; each cell therefore folds the hash of
      every atomic result into an {e observation digest};
    - the {e shared state} of the base objects, hidden inside the
      closures of {!Slx_base_objects}.  Every base-object constructor
      registers a state reader with the registry in effect at
      allocation time; folding the readers digests the shared state.

    Digests are hashes: two configurations with equal digests are equal
    up to hash collision (made unlikely by {!hash_value}'s deep
    traversal), a standard model-checking trade-off.

    Only a walk that keys configurations reads them.  A {e keyless}
    registry and cell ([~keyed:false]) keep neither digest current:
    the registry still issues ids and refuses a second registration at
    one id, but stores and calls no reader and queues no written
    object, and the cell hashes no result.  Its digests raise (the
    registry's) or stay at their initial value (the cell's). *)

val obs : cell -> int
(** The observation digest of the process: a fold of the hashes of
    every atomic-action result it has received so far (constant on a
    keyless cell). *)

type registry
(** A collection of shared-state readers, one per base object allocated
    while the registry was current. *)

val fresh_registry : ?keyed:bool -> unit -> registry
(** A fresh registry, issuing ids from 1.  [keyed] (default [true])
    keeps the shared-state digest; a keyless registry keeps none (see
    above). *)

val with_registry : ?probe:probe -> registry -> (unit -> 'a) -> 'a
(** [with_registry reg f] runs [f] with [reg] as the current registry
    and, when given, [probe] installed as the current DPOR probe (an
    omitted one leaves the current one in place).  Everything it
    installed is restored afterwards, exceptions included.  Both live
    in one module-level frame with the state of the atomic step in
    flight, so a grant or a {!touch} reaches them with one read.  The simulator runs on one
    domain: nothing here is safe to share across domains. *)

val register_object : (unit -> int) -> int
(** Called by base-object constructors: adds a reader returning a hash
    of the object's current state to the current registry, and returns
    the object's footprint id (for {!touch}).  Ids issued by
    one registry are positive, deterministic (allocation order, or the
    fixed offset inside an {!in_block} scope), and unique within the
    registry; with no registry current the reader is dropped and a
    fresh negative id is returned; under a keyless registry the id is
    issued and checked as under a keyed one, and the reader is dropped.
    @raise Invalid_argument if an {!in_block} scope's block is
    exhausted. *)

type id_block
(** A run of consecutive object ids reserved in one registry (or in the
    orphan id space) for objects built later. *)

val reserve_ids : int -> id_block
(** [reserve_ids size] reserves [size] consecutive ids in the current
    registry, registering nothing; objects allocated afterwards outside
    the block get ids past it.  Inside an {!in_block} scope the block
    is carved from the enclosing one.  Costs O(1): registry storage
    grows only when an object actually registers at an id. *)

val in_block : id_block -> offset:int -> (unit -> 'a) -> 'a
(** [in_block blk ~offset f] runs [f] so that the objects it registers
    take the ids [offset], [offset + 1], ... of [blk], in allocation
    order.  [f] must run under the registry [blk] was reserved in —
    as implementation code does, whose cursor keeps its own registry
    current — because a block is plain data: it holds no reference to
    its registry, so an object that keeps one stays hashable by
    value.  Implementations that build objects
    lazily, mid-run, use it to keep each object's id a function of its
    logical identity rather than of the schedule that first needed it.
    @raise Invalid_argument if [offset] lies outside [blk]; [f] raises
    it if it registers past [blk]'s end. *)

val registry_digest : registry -> int
(** A digest of the current shared state of every base object in the
    registry: the XOR of one [combine id (reader ())] contribution per
    object, maintained {e incrementally}, Zobrist-style — a write
    reported through {!touch} marks its object dirty, and only dirty
    objects are re-read here, so the cost is O(writes since the last
    digest) rather than O(objects), which grows over a run: every
    commit-adopt round a run enters registers 2n registers.

    Exactness rests on the touch contract: every physical mutation of
    a registered object's state is reported via [touch ~write:true]
    with the owning object's id while its registry is current.  The
    instrumented base-object layer does this by construction: stores
    route through [Slx_base_objects.store], which reports the {e
    owning} cell.  {!registry_digest_full} is the cross-check.
    @raise Invalid_argument on a keyless registry. *)

val registry_digest_full : registry -> int
(** The same digest recomputed from scratch — O(objects), what
    {!registry_digest} cost before the incremental scheme.  Equal to
    {!registry_digest} unless some mutation bypassed the touch
    contract (the incremental digest would then be stale, and the
    divergence is the diagnostic); used by tests and the before/after
    microbenchmarks.
    @raise Invalid_argument on a keyless registry. *)

val registry_objects : registry -> int
(** How many objects are registered: O(storage), for tests and
    diagnostics.  Reserved but unused block ids do not count. *)

val mix64 : int -> int
(** A 64-bit finalizing mixer (xorshift-star family, 63-bit-safe
    constants): spreads small-int keys across the whole word.  Used by
    {!Slx_core.Key_table}'s key hash. *)

val combine : int -> int -> int
(** [combine h v] folds [v] into the running digest [h] (FNV-style,
    then {!mix64}); not commutative, so a digest depends on the order
    of its folds.  Each process's observation digest folds its atomic
    results' {!hash_value}s this way, and a keyed
    {!Runner.Cursor}'s history digest its events'. *)

val hash_value : 'a -> int
(** The deep structural hash used for every fingerprint component: an
    explicit full traversal folding every immediate, string byte and
    float bit pattern through {!mix64}.  Unlike the polymorphic
    [Hashtbl.hash] (which samples a bounded number of nodes and
    silently truncates deep values) this hash sees the whole value, so
    two configurations collide only with 64-bit-hash probability.  An
    immediate (an int, bool, char, unit or constant constructor, as
    most atomic results are) is hashed without the traversal, to the
    digest the traversal gives it. *)
