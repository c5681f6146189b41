(** The search kernel both explorers build on ({!Explore} for safety,
    {!Live_explore} for fair cycles).

    Both walk the same bounded decision tree in the same way: a node is
    a live {!Slx_sim.Runner.Cursor}; a crash child that ends a run is
    decided from its parent's cursor ({!classify}), as is the live
    walk's leaf that closes no candidate ([Step_leaf]), the first other
    child extends that cursor in place and each later sibling replays
    the decision prefix into a fresh, bracketed cursor; a transposition
    cache keyed on flat compact keys credits completed subtrees, and
    only a search that keeps one has keyed cursors (see {!with_cursor});
    every node is counted, ticks the progress reporter, polls
    [cancel] and sits inside a telemetry node span.  This module holds
    that shared walk, its state, its menu and its sleep-set rule.  What
    really differs — the leaf check, the live walk's one-level sleep
    sets or the cycle candidates — stays in each explorer's own [visit]
    recursion. *)

open Slx_history
open Slx_sim
module Telemetry = Slx_obs.Telemetry
module Progress = Slx_obs.Progress

exception Interrupted of Explore_stats.t
(** Re-exported as {!Explore.Interrupted}. *)

(** The mutable state of one search.  Counters an explorer never
    touches stay 0. *)
type ('inv, 'res, 'v, 'f) t = {
  n : int;
  factory : unit -> ('inv, 'res) Runner.factory;
  obs : Slx_obs.Obs.t;
  sink : Telemetry.sink;
  progress : Progress.t;
  mutable sample : unit -> Progress.sample;
  cancel : unit -> bool;
  t0 : int;  (** Clock reading at {!create}, for [elapsed_ns]. *)
  mutable nodes : int;
  mutable runs : int;
  mutable checked : int;
  mutable replayed : int;
  mutable avoided : int;
  mutable hits : int;
  mutable sleeps : int;  (** [por_prunes]. *)
  mutable reversals : int;
  mutable sym_pruned : int;
  mutable invoke_pruned : int;
  mutable proviso : int;
  mutable cycles : int;
  mutable fair : int;
  mutable digest : int;
  mutable found : 'f option;
      (** The witness {!found} recorded before unwinding. *)
  ticks : int ref;
  table : 'v Key_table.t option;
      (** The transposition table, keyed by {!key} arrays: [Some]
          exactly when the search was created with [cache]. *)
  probe : Runtime.probe option;
      (** DPOR observed-access probe shared by every cursor; recording
          only. *)
}

val create :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  cache:bool ->
  dpor:bool ->
  ?cancel:(unit -> bool) ->
  Slx_obs.Obs.t ->
  ('inv, 'res, 'v, 'f) t
(** A fresh search over [n] processes.  [cache] builds the
    transposition table (a {!Key_table}, unbounded), and with it
    keyed cursors; [dpor] the observed-access probe.  The
    bundle's sink and progress
    reporter are taken once, here. *)

val stats : (_, _, _, _) t -> Explore_stats.t
(** The counters so far, [elapsed_ns] measured from {!create}. *)

val with_cursor :
  ('inv, 'res, 'v, 'f) t ->
  ?prefix:('inv, 'res) Driver.decision list ->
  (('inv, 'res) Runner.Cursor.t -> 'a) ->
  'a
(** A cursor on a fresh instance carrying the search's hooks, disposed
    of however the body ends, so at most [depth + 1] are live.  It is
    keyed ({!Slx_sim.Runner.Cursor.with_} [~keyed]) exactly when the
    search keeps a transposition table: a table-less walk (DPOR with
    symmetry, the live walk at its default period, the naive oracle,
    certificate validation) keeps no history, shared-state or
    observation digest, and must not call {!key}. *)

val node : (_, _, _, _) t -> int -> (unit -> unit) -> unit
(** [node st len body] enters a node at depth [len]: counts it, ticks
    progress, then polls [cancel] and runs [body] inside the
    [Node_enter]/[Node_leave] span, which closes on every exit.  With
    the sink disabled there is no [Fun.protect] frame. *)

type sleep = Dpor.sleep
(** A DPOR sleep set ({!Dpor.sleep}).  A sleeper's footprint is a
    function of the configuration and the process while the process
    sleeps, so transposition keys carry only {!sleep_ids}. *)

val sleep_ids : sleep -> int list
(** The sleeping processes, in order. *)

(** A child as {!classify} hands it to {!children}. *)
type ('inv, 'res) child =
  | Descend of (('inv, 'res) Driver.decision list * int) option
      (** Built and walked.  An open crash child carries the menu
          {!classify} took on its crash view: the menu its own node
          would take, so its walk uses it instead, and counts its
          pruned entries only where it reaches the menu (a table hit
          counts none).  A step or an invocation carries [None]. *)
  | Crash_leaf of ('inv, 'res) Runner.Cursor.crash
      (** A [Leaf] crash child, checked from its parent's snapshot. *)
  | Step_leaf
      (** A step or invocation child its walk decided at the parent
          without running it: the live walk's leaf that closes no
          candidate ({!Slx_liveness.Lasso.may_close}).  {!classify}
          never returns one. *)

val children :
  ('inv, 'res, 'v, 'f) t ->
  ('inv, 'res) Runner.Cursor.t ->
  rev_script:('inv, 'res) Driver.decision list ->
  len:int ->
  sleep:sleep ->
  apply:(('inv, 'res) Runner.Cursor.t -> ('inv, 'res) Driver.decision -> 'a) ->
  leaf:(('inv, 'res) Runner.Cursor.crash option ->
  ('inv, 'res) Driver.decision ->
  sleep ->
  unit) ->
  (('inv, 'res) Driver.decision * ('inv, 'res) child) list ->
  (('inv, 'res) Runner.Cursor.t ->
  ('inv, 'res) Driver.decision ->
  sleep ->
  (('inv, 'res) Driver.decision list * int) option ->
  'a ->
  unit) ->
  unit
(** [children st cursor ~rev_script ~len ~sleep ~apply ~leaf kids
    descend] walks a node's children, as {!classify} returns them, in
    order, each with its candidate sleep set: under DPOR (the search
    was created with a probe) the node's [sleep] plus every earlier
    sibling's step, with the footprint the probe observed right after
    that sibling was applied, but the node's [sleep] alone for a crash
    child, since a sibling's step moved before the crash leaves a run
    the menu does not offer (doc/model.md §6); without DPOR, [[]].  A
    [Step_leaf] sibling never runs, so it sleeps with
    {!Slx_sim.Runtime.opaque}; only the live walk makes step leaves,
    at the depth bound, where no sleep set is settled.  Each child
    emits its [Decision] event.  A
    decided crash leaf goes to [leaf] with its snapshot, a [Step_leaf]
    with [None]: no cursor, no replay, counted as neither
    [replays_avoided] nor [steps_replayed].  Every other child is
    applied with [apply] and handed to [descend] with its {!classify}d
    menu and [apply]'s result: the first extends
    [cursor] in place ([replays_avoided]), each later one replays the
    node's prefix into a fresh cursor ([steps_replayed]).  The live
    search drops the node's own [sleep] from every child once
    {!settle} has run: its sleep sets are one level deep. *)

type crash_child =
  | Dead  (** Its menu is non-empty and offers only sleepers. *)
  | Leaf  (** Its menu is empty: it ends a maximal run. *)
  | Open  (** Anything else: it is built and walked. *)

val crash_child :
  menu:
    (('inv, 'res) Driver.view ->
    last:('inv, 'res) Driver.decision option ->
    int ->
    int ->
    ('inv, 'res) Driver.decision list * int) ->
  ('inv, 'res) Driver.view ->
  sleep:sleep ->
  int ->
  int ->
  Proc.t ->
  crash_child
(** [crash_child ~menu view ~sleep len crashes q] classifies, at a node
    of depth [len] with [crashes] crashes and sleep set [sleep], its
    child [Crash q], from [view], the configuration after the crash
    ({!Slx_sim.Runner.Cursor.crash_view}), by [menu] (the walk's
    {!menu}) taken once at [len + 1], [crashes + 1], after [Crash q].
    A crash wakes no sleeper and the child's sleep set is its node's,
    so a [Dead] child would be blocked: it roots no maximal run.  A
    [Leaf] is a maximal run, the node's run plus [Crash q]
    (doc/model.md §6).  With [sleep = []] no child is [Dead]. *)

val classify :
  menu:
    (('inv, 'res) Driver.view ->
    last:('inv, 'res) Driver.decision option ->
    int ->
    int ->
    ('inv, 'res) Driver.decision list * int) ->
  ('inv, 'res) Runner.Cursor.t ->
  sleep:sleep ->
  int ->
  int ->
  ('inv, 'res) Driver.decision list ->
  (('inv, 'res) Driver.decision * ('inv, 'res) child) list * int
(** [classify ~menu cursor ~sleep len crashes decisions] runs
    {!crash_child} on every crash among a node's active [decisions],
    before any child moves [cursor].  It returns the children in menu
    order, a [Leaf] as a [Crash_leaf] with its
    {!Slx_sim.Runner.Cursor.crash} snapshot, an [Open] crash child with
    the menu it was classified by, and every other child as
    [Descend None]; and the number of [Dead] children it dropped. *)

val full_menu :
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  depth:int ->
  max_crashes:int ->
  ('inv, 'res) Driver.view ->
  int ->
  int ->
  ('inv, 'res) Driver.decision list
(** [full_menu ~invoke ~depth ~max_crashes view len crashes] is the
    unrestricted decision menu at a node of depth [len] with [crashes]
    crashes so far, in the canonical order that defines
    "lexicographically least script": for each process 1..n, its step
    (if ready) or its invocation (if idle and [invoke] has one); then,
    while [crashes < max_crashes], each process not yet crashed,
    crashed.  Empty at [len >= depth].  {!menu} filters it;
    {!Explore.explore_naive} walks it unfiltered. *)

val menu :
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  depth:int ->
  max_crashes:int ->
  symmetry:bool ->
  invoke_order:bool ->
  ('inv, 'res) Driver.view ->
  last:('inv, 'res) Driver.decision option ->
  int ->
  int ->
  ('inv, 'res) Driver.decision list * int
(** The menu {!Explore.explore} and {!Live_explore.search} walk at a
    node whose last decision is [last]: {!full_menu}, offering
    [Crash p] only directly after a step or invocation of [p] or, while
    the script is all crashes, in ascending order (doc/model.md §6);
    under [symmetry] only the least untouched process's invocation and
    crash; under [invoke_order] only the least idle process's invocation
    (§7).  The second component counts what the last two filters
    pruned.  It is one pass over the processes, with no intermediate
    list.  Applied to its labelled arguments once per walk,
    it builds each [Schedule p] and [Crash p] once and shares them
    across every node.  That partial application holds the pass's
    mutable state, so it serves one walk, on one domain, at a time. *)

val crash_slot :
  max_crashes:int -> last:('inv, 'res) Driver.decision option -> int -> int
(** The process whose crash {!menu} may offer after the last decision,
    or 0: the part of a menu the configuration does not fix, which the
    safety explorer's transposition key carries. *)

val asleep :
  sleep ->
  ('inv, 'res) Driver.decision list ->
  ('inv, 'res) Driver.decision list * ('inv, 'res) Driver.decision list
(** [asleep sleep decisions] splits a menu into the steps of the
    processes in the sleep set [sleep] and the rest, in menu order. *)

val settle :
  ('inv, 'res, 'v, 'f) t -> ('inv, 'res) Driver.decision -> sleep -> int -> sleep
(** [settle st d sleep len] settles a child's candidate sleep set once
    its edge [d] has executed, at depth [len]: the entries
    {!Dpor.advance} keeps, racing the accesses [d] actually performed
    ({!Dpor.observed_step} of the search's probe) against each
    sleeper's observed footprint.  The entries it wakes are
    the race reversals: counted in [race_reversals] and emitted as one
    [Race_reversal] event.  Both explorers' DPOR walks settle through
    here. *)

val code_of_decision : ('inv, 'res) Driver.decision -> int
(** {!Explore.code_of_decision}, defined here so that the [Decision]
    events this module emits carry the same code. *)

val crashes_after : int -> ('inv, 'res) Driver.decision -> int
(** The crash count after a decision. *)

val key : ('inv, 'res) Runner.Cursor.t -> int list -> int array
(** The cache key: the cursor's [compact_key] with the given tail,
    itself — the cache hashes and compares the whole array. *)

val find : ('inv, 'res, 'v, 'f) t -> int array option -> 'v option
(** The cached entry under the key, if any ([None] without a cache or
    a key). *)

val remember : ('inv, 'res, 'v, 'f) t -> int array option -> 'v -> unit
(** Write an entry under the key, if any.  A found witness ends the
    walk, so only entries of completed, witness-free subtrees are ever
    read back, and a hit never masks the least witness. *)

val hit : (_, _, _, _) t -> int -> int -> unit
(** [hit st len runs] counts a cache hit at depth [len] crediting
    [runs] maximal runs. *)

val found : ('inv, 'res, 'v, 'f) t -> 'f -> 'a
(** Record the witness and unwind to {!run}. *)

val run : ('inv, 'res, 'v, 'f) t -> (unit -> unit) -> 'f option
(** Run a walk: [None] when it completes, the witness when it called
    {!found}.
    @raise Interrupted with the partial stats when [cancel] fired. *)
