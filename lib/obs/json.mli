(** A minimal JSON reader — just enough to load a saved trace back
    (the trace reader behind [slx stats] and the bench smoke,
    and the well-formedness tests), with no third-party dependency.

    The grammar is standard JSON.  Integer literals that fit an OCaml
    [int] are read exactly as [Int] (digests and counters are 63-bit);
    every other number is read as a [float] [Num].  [\u] escapes are
    decoded only for the ASCII range and replaced with ['?'] otherwise,
    which the traces this library emits never contain. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** An integer literal, exact. *)
  | Num of float  (** Any other number. *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; trailing garbage is an error.  The error
    string includes the offending byte offset. *)

val parse_file : string -> (t, string) result

val quote : string -> string
(** A JSON string literal: the string's bytes between double quotes,
    with each double quote and backslash escaped by a backslash and
    each control character written as a six-byte [u00XX] escape.  The
    one string escaper of the repository's hand-written JSON;
    [to_string (Str s)] is [quote s]. *)

val to_string : t -> string
(** One-line JSON.  [parse (to_string j)] is [Ok j] for every parsed
    [j] without a non-finite number or a non-ASCII [\u] escape.  A
    [Num] that is not an integer below [1e17] prints with the fewest of
    15, 16 or 17 significant digits that read back as the same float,
    so [0.1] prints as [0.1]. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj] ([None] on anything else or a missing key). *)

val to_list : t -> t list
(** Elements of an [Arr]; [[]] on anything else. *)

val num : t -> float option
(** Either number form, as a float. *)

val int : t -> int option
(** An [Int] exactly; a [Num] truncated. *)

val str : t -> string option
