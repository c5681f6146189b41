(** The checked-in waiver file.

    One entry per line, [key=value] tokens separated by whitespace,
    values optionally double-quoted; [#] starts a comment:

    {v
    # a derived cache, rebuilt by every instantiation
    rule=escape-unregistered-state file=lib/objects/universal.ml \
      match="Array.init (n + 1)" expires=2030-12-31 \
      reason="derived replay cache of the registered log"
    v}

    [rule] and [file] are mandatory and matched exactly ([file] is the
    lint-root-relative path).  [match] is an optional substring of the
    finding's source-line snippet — waivers deliberately do not carry
    line numbers, so unrelated edits to the file cannot silently
    re-aim one.  [expires] (optional, [YYYY-MM-DD]) turns the entry
    into a [waiver-expired] finding once today is past it; [reason] is
    mandatory so every suppression carries its justification. *)

type entry = {
  w_rule : string;
  w_file : string;
  w_match : string option;
  w_expires : string option;  (** [YYYY-MM-DD]; lexicographic order. *)
  w_reason : string;
  w_line : int;  (** 1-based line in the waiver file, for reporting. *)
}

val parse : string -> (entry list, string * int) result
(** Parse the file contents; [Error (msg, line)] on the first
    malformed entry. *)

val matches : entry -> Finding.t -> bool
(** Rule and file equal; [match] substring present in the snippet (or
    in the message when the snippet is empty). *)

val expired : today:string -> entry -> bool

val entry_to_json : entry -> string
