(** The transaction-level view of a TM history.

    The opacity checker and the Section 5.3 property reason about
    whole transactions — their operations, status, real-time intervals
    and per-process index — rather than raw events.  This module
    extracts that view from a well-formed TM history. *)

open Slx_history

type status =
  | Committed       (** Received the commit event [C]. *)
  | Aborted         (** Received an abort event [A]. *)
  | Commit_pending  (** Invoked [tryC] but got no response yet. *)
  | Live            (** Running; [tryC] not yet invoked. *)

type op =
  | Read_op of Tm_type.var * int   (** A completed read and its value. *)
  | Write_op of Tm_type.var * int  (** A completed write. *)

type t = {
  proc : Proc.t;            (** The executing process. *)
  index : int;              (** [t]-th transaction of its process (1-based). *)
  start_inv : int;          (** Event index of the [start] invocation. *)
  start_res : int option;   (** Event index of the [start] response. *)
  finished : int option;    (** Event index of the final [C]/[A], if any. *)
  tryc_inv : int option;    (** Event index of the [tryC] invocation. *)
  ops : op list;            (** Completed reads and writes, in order. *)
  status : status;
}

val of_history : Tm_type.history -> t list
(** All transactions, ordered by [start_inv].  The history must be
    well-formed; operations outside any transaction (e.g. a [read]
    before any [start]) are ignored. *)

val same : t -> t -> bool
(** Stable identity: same process and same per-process index.  Use
    this instead of physical equality — transactions are rebuilt from
    the history on every check, so sharing is never preserved. *)

val precedes : t -> t -> bool
(** Real-time order: [t1] received its final [C]/[A] before [t2]
    invoked [start]. *)

val concurrent : t -> t -> bool
(** Neither precedes the other. *)

val writes : t -> (Tm_type.var * int) list
(** The write set, last write per variable winning. *)

val pp : Format.formatter -> t -> unit
