type entry = {
  w_rule : string;
  w_file : string;
  w_match : string option;
  w_expires : string option;
  w_reason : string;
  w_line : int;
}

(* Split a line into [key=value] tokens; a value may be double-quoted
   to contain spaces (["\""] inside quoted values is not supported —
   waiver matches are source substrings, which never need it). *)
let tokens line =
  let n = String.length line in
  let rec skip i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip (i + 1) else i in
  let rec token acc i =
    let i = skip i in
    if i >= n || line.[i] = '#' then Ok (List.rev acc)
    else
      match String.index_from_opt line i '=' with
      | None -> Error i
      | Some eq ->
          let key = String.sub line i (eq - i) in
          if key = "" || String.contains key ' ' then Error i
          else if eq + 1 < n && line.[eq + 1] = '"' then begin
            match String.index_from_opt line (eq + 2) '"' with
            | None -> Error i
            | Some close ->
                let v = String.sub line (eq + 2) (close - eq - 2) in
                token ((key, v) :: acc) (close + 1)
          end
          else
            let stop =
              match String.index_from_opt line (eq + 1) ' ' with
              | None -> n
              | Some s -> s
            in
            token ((key, String.sub line (eq + 1) (stop - eq - 1)) :: acc) stop
  in
  token [] 0

let is_date s =
  String.length s = 10
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s
  && s.[4] = '-' && s.[7] = '-'

let parse contents =
  let lines = String.split_on_char '\n' contents in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> begin
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go acc (lineno + 1) rest
        else
          match tokens trimmed with
          | Error col ->
              Error
                ( Printf.sprintf "unparsable token at column %d" (col + 1),
                  lineno )
          | Ok kvs -> begin
              let find k = List.assoc_opt k kvs in
              let bad msg = Error (msg, lineno) in
              match (find "rule", find "file", find "reason") with
              | None, _, _ -> bad "missing rule="
              | _, None, _ -> bad "missing file="
              | _, _, None -> bad "missing reason= (every waiver needs one)"
              | Some rule, Some file, Some reason ->
                  if not (List.exists (fun (r, _, _) -> r = rule) Finding.rules)
                  then bad (Printf.sprintf "unknown rule %S" rule)
                  else begin
                    match find "expires" with
                    | Some d when not (is_date d) ->
                        bad
                          (Printf.sprintf "bad expires %S (want YYYY-MM-DD)" d)
                    | expires ->
                        let unknown =
                          List.filter
                            (fun (k, _) ->
                              not
                                (List.mem k
                                   [ "rule"; "file"; "match"; "expires";
                                     "reason" ]))
                            kvs
                        in
                        if unknown <> [] then
                          bad
                            (Printf.sprintf "unknown key %S"
                               (fst (List.hd unknown)))
                        else
                          go
                            ({
                               w_rule = rule;
                               w_file = file;
                               w_match = find "match";
                               w_expires = expires;
                               w_reason = reason;
                               w_line = lineno;
                             }
                            :: acc)
                            (lineno + 1) rest
                  end
            end
      end
  in
  go [] 1 lines

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  if lsub = 0 then true
  else
    let rec at i =
      i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1))
    in
    at 0

let matches e (f : Finding.t) =
  e.w_rule = f.rule && e.w_file = f.file
  &&
  match e.w_match with
  | None -> true
  | Some sub ->
      contains ~sub (if f.snippet = "" then f.message else f.snippet)

(* ISO dates compare lexicographically; an entry with no expiry never
   expires. *)
let expired ~today e =
  match e.w_expires with None -> false | Some d -> String.compare d today < 0

let entry_to_json e =
  let q = Slx_obs.Json.quote in
  let opt = function Some s -> q s | None -> "null" in
  Printf.sprintf
    "{\"line\": %d, \"rule\": %s, \"file\": %s, \"match\": %s, \"expires\": \
     %s, \"reason\": %s}"
    e.w_line (q e.w_rule) (q e.w_file) (opt e.w_match) (opt e.w_expires)
    (q e.w_reason)
