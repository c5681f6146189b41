(** Histories of shared-object implementations.

    A history is the subsequence of an execution consisting only of
    external actions: invocations, responses and crashes (Section 2 of
    the paper).  Histories are the values on which safety and liveness
    properties are defined (Section 3).

    The representation is persistent; [append] is O(1) and iteration is
    in chronological order. *)

type ('inv, 'res) t
(** A finite history over invocation payloads ['inv] and response
    payloads ['res]. *)

val empty : ('inv, 'res) t
(** The empty history. *)

val append : ('inv, 'res) t -> ('inv, 'res) Event.t -> ('inv, 'res) t
(** [append h e] is the history [h . e]. *)

val of_list : ('inv, 'res) Event.t list -> ('inv, 'res) t
(** Build a history from events in chronological order. *)

val to_list : ('inv, 'res) t -> ('inv, 'res) Event.t list
(** The events of the history in chronological order. *)

val length : ('inv, 'res) t -> int
(** Number of events. *)

val latest : ('inv, 'res) t -> int -> ('inv, 'res) Event.t list
(** [latest h k] is the last [k] events of [h], in chronological
    order, in O([k]): what the last [k] appends added.
    @raise Invalid_argument if [k < 0] or [k > length h]. *)

val is_empty : ('inv, 'res) t -> bool

val nth : ('inv, 'res) t -> int -> ('inv, 'res) Event.t
(** [nth h i] is the [i]-th event (0-based).
    @raise Invalid_argument if out of bounds. *)

val project : ('inv, 'res) t -> Proc.t -> ('inv, 'res) t
(** [project h p] is [h|p]: the longest subsequence of [h] consisting
    only of events of process [p] (invocations, responses and crashes
    of [p]). *)

val procs : ('inv, 'res) t -> Proc.Set.t
(** The set of processes appearing in the history. *)

val crashed : ('inv, 'res) t -> Proc.Set.t
(** Processes that crash in the history.  Per Section 2, a process is
    {e correct} in a history iff it does not crash in it. *)

val is_correct : ('inv, 'res) t -> Proc.t -> bool
(** [is_correct h p] iff [p] has no crash event in [h]. *)

val is_well_formed : ('inv, 'res) t -> bool
(** Well-formedness per Section 2: for every process [p], the non-crash
    events of [h|p] alternate invocation / response starting with an
    invocation, and no event of [p] follows a [crash_p] event. *)

val pending : ('inv, 'res) t -> Proc.t -> 'inv option
(** [pending h p] is [Some inv] iff [h|p] ends with invocation [inv]
    (ignoring a trailing crash): process [p] is {e pending} in [h]. *)

val pending_procs : ('inv, 'res) t -> Proc.Set.t
(** All processes pending in the history. *)

val prefixes : ('inv, 'res) t -> ('inv, 'res) t list
(** All prefixes of the history, from [empty] to the history itself,
    in increasing length order.  Used to check prefix-closure of safety
    properties (Definition 3.1). *)

val prefix : ('inv, 'res) t -> int -> ('inv, 'res) t
(** [prefix h k] is the prefix of [h] with [k] events.
    @raise Invalid_argument if [k < 0] or [k > length h]. *)

val is_prefix :
  inv:('inv -> 'inv -> bool) ->
  res:('res -> 'res -> bool) ->
  ('inv, 'res) t ->
  ('inv, 'res) t ->
  bool
(** [is_prefix ~inv ~res h1 h2] iff [h1] is a prefix of [h2]. *)

val equal :
  inv:('inv -> 'inv -> bool) ->
  res:('res -> 'res -> bool) ->
  ('inv, 'res) t ->
  ('inv, 'res) t ->
  bool

val concat : ('inv, 'res) t -> ('inv, 'res) t -> ('inv, 'res) t
(** [concat h1 h2] is the history [h1 . h2]. *)

val filter :
  (('inv, 'res) Event.t -> bool) -> ('inv, 'res) t -> ('inv, 'res) t

val map :
  inv:('inv -> 'inv2) ->
  res:('res -> 'res2) ->
  ('inv, 'res) t ->
  ('inv2, 'res2) t

val rename : (Proc.t -> Proc.t) -> ('inv, 'res) t -> ('inv, 'res) t
(** Rename processes throughout the history (see {!Event.rename}). *)

val responses_of : ('inv, 'res) t -> Proc.t -> 'res list
(** All responses received by a process, in order. *)

val invocations_of : ('inv, 'res) t -> Proc.t -> 'inv list
(** All invocations performed by a process, in order. *)

val count : (('inv, 'res) Event.t -> bool) -> ('inv, 'res) t -> int
(** Number of events satisfying a predicate. *)

val pp :
  pp_inv:(Format.formatter -> 'inv -> unit) ->
  pp_res:(Format.formatter -> 'res -> unit) ->
  Format.formatter ->
  ('inv, 'res) t ->
  unit
(** Prints the history as a [.]-separated event sequence, matching the
    paper's notation, e.g. ["propose(0)_1 . propose(1)_2 . 0_1"]. *)
