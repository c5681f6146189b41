(** The crash-move map: the relation between the naive explorer's
    runs, which may crash a process wherever a crash is enabled, and
    the reduced explorers' canonical crash placement, where [Crash p]
    comes directly after [p]'s last step or invocation, or in an
    ascending all-crash prefix at the root (doc/model.md §6).  Scripts
    are lists of {!Slx_core.Explore.code_of_decision} codes. *)

open Slx_sim

val script_of_report : ('inv, 'res) Run_report.t -> int list
(** The decision script a run report records, one decision per tick. *)

val canonical : int list -> int list
(** The canonical representative of a script: every [Crash p] moved to
    just after [p]'s last step or invocation, and the crashes of
    processes that never acted moved to an ascending root prefix. *)

val compare_scripts : int list -> int list -> int
(** The order both walks visit their runs in: menu order at the first
    difference (steps and invocations by process, then crashes by
    process), a proper prefix first. *)

val visited : ((('inv, 'res) Run_report.t -> bool) -> unit) -> int list list
(** [visited explore] runs [explore] with a check that accepts every
    run, and returns the scripts of the runs it checked, in order. *)

val naive_runs :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Slx_history.Proc.t -> 'inv option) ->
  depth:int ->
  max_crashes:int ->
  int list list
(** Every maximal run of the naive explorer, in its walk order. *)

val image : int list list -> int list list
(** The canonical representatives of some scripts, without repeats, in
    {!compare_scripts} order. *)

val replay :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Slx_history.Proc.t -> 'inv option) ->
  int list ->
  ('inv, 'res) Run_report.t
(** The report of a script replayed on a fresh instance, with the
    window the explorers give a leaf. *)

val least_failing :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Slx_history.Proc.t -> 'inv option) ->
  depth:int ->
  max_crashes:int ->
  check:(('inv, 'res) Run_report.t -> bool) ->
  int list option
(** The least run, in {!compare_scripts} order, of the image of the
    naive explorer's runs that [check] rejects.  The image is the set
    of naive runs that are their own {!canonical} form, so this is the
    first such run the naive walk rejects. *)
