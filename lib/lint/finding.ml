type severity = Warn | Error

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
