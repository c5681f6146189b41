type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\255' -> fail "unterminated string"
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some c when c < 128 -> Buffer.add_char b (Char.chr c)
              | Some _ -> Buffer.add_char b '?'
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | _ -> fail "bad escape");
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while numchar (peek ()) do
      advance ()
    done;
    let lexeme = String.sub s start (!pos - start) in
    (* Integer literals stay exact: 63-bit digests do not survive a
       round trip through a float.  One too wide for [int] falls back
       to a float like any other number. *)
    let integral =
      String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) lexeme
    in
    match (if integral then int_of_string_opt lexeme else None) with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lexeme with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (string_body ())
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else Arr (elements [])
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else Obj (fields [])
    | c when c = '-' || (c >= '0' && c <= '9') -> number ()
    | _ -> fail "unexpected character"
  and elements acc =
    let v = value () in
    skip_ws ();
    match peek () with
    | ',' ->
        advance ();
        elements (v :: acc)
    | ']' ->
        advance ();
        List.rev (v :: acc)
    | _ -> fail "expected ',' or ']'"
  and fields acc =
    skip_ws ();
    let k = string_body () in
    skip_ws ();
    expect ':';
    let v = value () in
    skip_ws ();
    match peek () with
    | ',' ->
        advance ();
        fields ((k, v) :: acc)
    | '}' ->
        advance ();
        List.rev ((k, v) :: acc)
    | _ -> fail "expected ',' or '}'"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The fewest significant digits, from 15 up to 17, that read back as
   [f]: [0.1] prints as [0.1], not [0.10000000000000001]. *)
let rec shortest digits f =
  let s = Printf.sprintf "%.*g" digits f in
  if digits >= 17 || float_of_string s = f then s else shortest (digits + 1) f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_integer f && Float.abs f < 1e17 ->
      (* Keep the fraction so it parses back as a [Num]. *)
      Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f -> shortest 15 f
  | Num _ -> "null"
  | Str s -> quote s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) kvs)
      ^ "}"

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error e -> Error e

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr xs -> xs | _ -> []
let num = function
  | Int i -> Some (float_of_int i)
  | Num f -> Some f
  | _ -> None

let int = function
  | Int i -> Some i
  | Num f -> Some (int_of_float f)
  | _ -> None

let str = function Str s -> Some s | _ -> None
