(** A structured lint finding.

    Every rule reports through this one type so the human renderer,
    the JSON emitter, the waiver matcher and the CI gate all agree on
    what a finding is.  Findings are pure data: producing one never
    prints, raises or exits. *)

type severity =
  | Info  (** Reported, never gates. *)
  | Warn  (** Gates [--ci]; waivable. *)
  | Error  (** Gates every run; waivable. *)

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

val gating : t -> bool
(** Whether the finding fails the lint ([severity >= Warn]). *)

val compare : t -> t -> int
(** Order by file, line, column, rule — the stable report order. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One-line JSON object. *)

val rules : (string * severity * string) list
(** The rule catalog: id, default severity, one-line doc.  Tests
    assert reported ids stay within it. *)
