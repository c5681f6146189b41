(** A structured lint finding.

    Every rule reports through this one type so the human renderer,
    the JSON emitter and the CI gate all agree on what a finding is.
    Findings are pure data: producing one never prints, raises or
    exits. *)

(** How sure the rule is.  Both gate: a sweep with any finding is not
    clean. *)
type severity =
  | Warn  (** A likely fault (the rule may lack context). *)
  | Error  (** A fault. *)

type t = {
  rule : string;  (** Rule id, e.g. ["escape-global-mutable"]. *)
  severity : severity;
  file : string;  (** Path relative to the lint root. *)
  line : int;  (** 1-based; 0 when the finding is file-level. *)
  col : int;  (** 0-based column of [line]. *)
  snippet : string;  (** The source line the finding points at. *)
  message : string;
}

val v :
  rule:string ->
  severity:severity ->
  file:string ->
  ?line:int ->
  ?col:int ->
  ?snippet:string ->
  string ->
  t

val compare : t -> t -> int
(** Order by file, line, column, rule — the stable report order. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One-line JSON object. *)
