(** The sweep driver: files -> parse -> {!Rules.check} -> waivers.

    The library is clock-free and [unix]-free: [today] is an ISO date
    string supplied by the caller (the CLI computes it; tests pin it),
    and with the default ["0000-00-00"] nothing ever expires. *)

type report = {
  root : string;  (** all paths below are relative to this *)
  files : string list;  (** every [.ml] swept, sorted *)
  findings : Finding.t list;
      (** unwaived findings, including [parse-error] and the
          [waiver-*] meta findings, sorted *)
  waived : (Finding.t * Waivers.entry) list;
      (** suppressed findings with the entry that suppressed each *)
}

val run :
  ?root:string ->
  ?paths:string list ->
  ?waiver_file:string ->
  ?today:string ->
  ?strict_waivers:bool ->
  unit ->
  report
(** Sweep [paths] (files or directories, relative to [root], default
    the model-code sweep: [lib/objects], [lib/consensus], [lib/tm],
    [lib/base_objects] and [examples]; directories recurse over [.ml]
    files, [.mli]
    interfaces carry no step bodies and are skipped).  A missing
    [path] is itself a finding, not an exception.  [waiver_file] (also
    relative to [root]) suppresses matching findings; a missing or
    malformed waiver file yields a [waiver-malformed] finding.
    [strict_waivers] raises unused-waiver findings from [Info] to the
    gating [Warn] (the [--ci] posture). *)

val clean : report -> bool
(** No finding at [Warn] or above. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> string
