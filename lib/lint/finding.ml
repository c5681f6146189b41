type severity = Info | Warn | Error

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  snippet : string;
  message : string;
}

let v ~rule ~severity ~file ?(line = 0) ?(col = 0) ?(snippet = "") message =
  { rule; severity; file; line; col; snippet; message }

let gating f = match f.severity with Info -> false | Warn | Error -> true

let compare a b =
  match String.compare a.file b.file with
  | 0 -> begin
      match Int.compare a.line b.line with
      | 0 -> begin
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c
        end
      | c -> c
    end
  | c -> c

let severity_label = function
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s: %s" f.file f.line f.col
    (severity_label f.severity)
    f.rule f.message;
  if f.snippet <> "" then Format.fprintf ppf "@,    | %s" (String.trim f.snippet)

let to_json f =
  let q = Slx_obs.Json.quote in
  Printf.sprintf
    "{\"rule\": %s, \"severity\": %s, \"file\": %s, \"line\": %d, \"col\": \
     %d, \"message\": %s, \"snippet\": %s}"
    (q f.rule)
    (q (severity_label f.severity))
    (q f.file) f.line f.col (q f.message)
    (q (String.trim f.snippet))

(* The catalog is the single source of rule ids; [Rules] and [Lint]
   construct findings through it so a typo'd id cannot ship. *)
let rules =
  [
    ( "escape-global-mutable",
      Error,
      "module-level mutable state (ref/array/Hashtbl/...) captured by a \
       function: shared across every instance and run, invisible to \
       fingerprints and replay" );
    ( "escape-unregistered-state",
      Error,
      "mutable state captured by a runtime-interacting closure without a \
       Runtime.register_object in scope: neither the fingerprint registry \
       nor a step's observed footprint sees it" );
    ( "escape-naked-mutation",
      Warn,
      "mutation of non-local state in runtime-interacting code outside any \
       atomic callback: the access is invisible to observed footprints" );
    ( "det-banned-call",
      Error,
      "call that can differ across replays (Random globals, Hashtbl.hash, \
       wall clocks, Gc introspection, Domain spawns): fingerprints, \
       lex-least witnesses and store re-validation assume determinism" );
    ( "det-physical-equality",
      Error,
      "physical equality (==/!=) in model code: depends on sharing, which \
       replay does not preserve" );
    ( "parse-error",
      Error,
      "the source file does not parse; nothing behind the error is checked" );
    ( "waiver-expired",
      Error,
      "a waiver entry is past its expiry date: re-justify or fix" );
    ( "waiver-unused",
      Warn,
      "a waiver entry matched no finding: stale, delete it" );
    ( "waiver-malformed",
      Error,
      "a waiver line does not parse: fix the entry" );
  ]
