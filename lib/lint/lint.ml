type report = {
  root : string;
  files : string list;
  findings : Finding.t list;
}

let default_paths =
  [
    "lib/objects";
    "lib/consensus";
    "lib/tm";
    "lib/base_objects";
    "examples";
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let under root p = if Filename.is_relative p then Filename.concat root p else p

let is_ml name =
  String.length name > 3 && String.sub name (String.length name - 3) 3 = ".ml"

(* Collect the [.ml] files under [rel] (root-relative), recursing into
   directories.  Hidden entries and [_build]-style dirs never appear
   under the swept paths, but skip dotfiles anyway. *)
let rec collect ~root rel acc =
  let abs = under root rel in
  if Sys.file_exists abs && Sys.is_directory abs then
    Array.fold_left
      (fun acc name ->
        if String.length name > 0 && name.[0] = '.' then acc
        else collect ~root (Filename.concat rel name) acc)
      acc (Sys.readdir abs)
  else if Sys.file_exists abs && is_ml rel then rel :: acc
  else acc

let check_file ~root rel =
  let abs = under root rel in
  match read_file abs with
  | exception Sys_error e ->
      [ Finding.v ~rule:"parse-error" ~severity:Finding.Error ~file:rel
          (Printf.sprintf "cannot read source: %s" e) ]
  | source -> begin
      let lexbuf = Lexing.from_string source in
      Lexing.set_filename lexbuf rel;
      match Parse.implementation lexbuf with
      | str -> Rules.check ~file:rel ~source str
      | exception exn ->
          let line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum in
          let msg =
            match exn with
            | Syntaxerr.Error _ -> "syntax error"
            | exn -> Printexc.to_string exn
          in
          [ Finding.v ~rule:"parse-error" ~severity:Finding.Error ~file:rel
              ~line
              (Printf.sprintf
                 "does not parse (%s): nothing behind the error is checked"
                 msg) ]
    end

let run ?(root = ".") ?(paths = default_paths) () =
  let files, missing =
    List.fold_left
      (fun (files, missing) p ->
        if Sys.file_exists (under root p) then
          (collect ~root p files, missing)
        else
          ( files,
            Finding.v ~rule:"parse-error" ~severity:Finding.Error ~file:p
              "swept path does not exist"
            :: missing ))
      ([], []) paths
  in
  let files = List.sort_uniq String.compare files in
  let findings = List.concat_map (check_file ~root) files @ missing in
  { root; files; findings = List.sort Finding.compare findings }

let clean rp = rp.findings = []

let pp ppf rp =
  Format.fprintf ppf "@[<v>";
  List.iter (fun f -> Format.fprintf ppf "%a@," Finding.pp f) rp.findings;
  Format.fprintf ppf "%d file%s swept, %d finding%s%s@]"
    (List.length rp.files)
    (if List.length rp.files = 1 then "" else "s")
    (List.length rp.findings)
    (if List.length rp.findings = 1 then "" else "s")
    (if clean rp then " - clean" else "")

let to_json rp =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"root\": %s,\n" (Slx_obs.Json.quote rp.root));
  Buffer.add_string b
    (Printf.sprintf "  \"files\": %d,\n" (List.length rp.files));
  Buffer.add_string b
    (Printf.sprintf "  \"clean\": %b,\n" (clean rp));
  Buffer.add_string b "  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n    ";
      Buffer.add_string b (Finding.to_json f))
    rp.findings;
  if rp.findings <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}";
  Buffer.contents b
