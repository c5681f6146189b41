(** The sweep driver: files -> parse -> {!Rules.check}.

    Every finding gates: a sweep is clean exactly when it reports
    nothing.  There is no waiver layer; code the rules flag is
    rewritten, not excused. *)

type report = {
  root : string;  (** all paths below are relative to this *)
  files : string list;  (** every [.ml] swept, sorted *)
  findings : Finding.t list;  (** including [parse-error], sorted *)
}

val run : ?root:string -> ?paths:string list -> unit -> report
(** Sweep [paths] (files or directories, relative to [root], default
    the model-code sweep: [lib/objects], [lib/consensus], [lib/tm],
    [lib/base_objects] and [examples]; directories recurse over [.ml]
    files, [.mli]
    interfaces carry no step bodies and are skipped).  A missing
    [path] is itself a finding, not an exception. *)

val clean : report -> bool
(** No finding. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> string
