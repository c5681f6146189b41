type verdict =
  | V_ok of int
  | V_counterexample of int list
  | V_no_fair_cycle
  | V_lasso of { stem : int list; cycle : int list }

type record = {
  r_qid : int;
  r_depth : int;
  r_max_period : int;
  r_pump_ticks : int;
  r_runs : int;
  r_steps : int;
  r_verdict : verdict;
}

type counters = {
  c_queries : int;
  c_warm_hits : int;
  c_colds : int;
  c_rejected : int;
  c_refused : int;
}

type health = {
  h_created : bool;
  h_invalidated : string option;
  h_records_dropped : int;
}

let format_version = 3

(* Bump the engine tag whenever menus, reductions or fingerprint
   semantics change — a stored verdict is only as good as the
   engine that would reproduce it.  The OCaml version rides along
   because history digests go through the runtime's value hashing. *)
let engine_version = Printf.sprintf "slx-engine-17+ocaml-%s" Sys.ocaml_version

let magic = "SLXSTOR1"

let zero_counters =
  { c_queries = 0; c_warm_hits = 0; c_colds = 0; c_rejected = 0; c_refused = 0 }

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, table-driven) and digesting.                     *)

let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let digest_string s =
  (* FNV-1a 64-bit offset basis, assembled in two halves: the literal
     overflows OCaml's 63-bit int, and the hash is mod-2^63 anyway. *)
  let h = ref ((0xcbf29ce4 lsl 32) lor 0x84222325) in
  String.iter
    (fun ch ->
      h := !h lxor Char.code ch;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

(* ------------------------------------------------------------------ *)
(* Payload (de)serialization: line-oriented text inside CRC frames.    *)

let ints_to_string xs = String.concat " " (List.map string_of_int xs)

let verdict_lines = function
  | V_ok n -> Printf.sprintf "ok %d" n
  | V_counterexample codes ->
      Printf.sprintf "cex %d %s" (List.length codes) (ints_to_string codes)
  | V_no_fair_cycle -> "nofc"
  | V_lasso { stem; cycle } ->
      Printf.sprintf "lasso %d %d %s" (List.length stem) (List.length cycle)
        (ints_to_string (stem @ cycle))

let record_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "Q %d %d %d %d %d %d\n" r.r_qid r.r_depth r.r_max_period
       r.r_pump_ticks r.r_runs r.r_steps);
  Buffer.add_string b (verdict_lines r.r_verdict);
  Buffer.contents b

let counters_payload c =
  Printf.sprintf "C %d %d %d %d %d" c.c_queries c.c_warm_hits c.c_colds
    c.c_rejected c.c_refused

let header_payload ~engine_version =
  Printf.sprintf "H %d %s" format_version engine_version

exception Malformed

(* Empty-list fields serialize as nothing, leaving a trailing space
   ("cex 0 "); dropping empty tokens makes those round-trip. *)
let tokens line =
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

let int_tok s = match int_of_string_opt s with Some n -> n | None -> raise Malformed

let rec take_ints k toks =
  if k = 0 then ([], toks)
  else
    match toks with
    | [] -> raise Malformed
    | t :: tl ->
        let xs, rest = take_ints (k - 1) tl in
        (int_tok t :: xs, rest)

let parse_verdict line =
  match tokens line with
  | [ "ok"; n ] -> V_ok (int_tok n)
  | "cex" :: k :: rest ->
      let codes, extra = take_ints (int_tok k) rest in
      if extra <> [] then raise Malformed;
      V_counterexample codes
  | [ "nofc" ] -> V_no_fair_cycle
  | "lasso" :: sl :: cl :: rest ->
      let stem, rest = take_ints (int_tok sl) rest in
      let cycle, extra = take_ints (int_tok cl) rest in
      if extra <> [] then raise Malformed;
      V_lasso { stem; cycle }
  | _ -> raise Malformed

let parse_record payload =
  match String.split_on_char '\n' payload with
  | [ q; v ] -> (
      match tokens q with
      | [ "Q"; qid; depth; mp; pt; runs; steps ] ->
          let r_verdict = parse_verdict v in
          {
            r_qid = int_tok qid;
            r_depth = int_tok depth;
            r_max_period = int_tok mp;
            r_pump_ticks = int_tok pt;
            r_runs = int_tok runs;
            r_steps = int_tok steps;
            r_verdict;
          }
      | _ -> raise Malformed)
  | _ -> raise Malformed

let record_of_string s =
  match parse_record s with
  | r -> Ok r
  | exception Malformed -> Error "malformed record"

let parse_counters payload =
  match tokens payload with
  | [ "C"; q; w; c; x; r ] ->
      {
        c_queries = int_tok q;
        c_warm_hits = int_tok w;
        c_colds = int_tok c;
        c_rejected = int_tok x;
        c_refused = int_tok r;
      }
  | _ -> raise Malformed

(* ------------------------------------------------------------------ *)
(* Framing.                                                            *)

let add_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let add_frame b payload =
  add_u32 b (String.length payload);
  add_u32 b (crc32 payload);
  Buffer.add_string b payload

(* The sane upper bound on one frame: the largest record is a witness
   or lasso of at most [depth] small int codes, so a larger length
   field means a corrupted frame, not a big record.  The writer holds
   itself to the same bound ({!encode}). *)
let max_frame = 1 lsl 26

type t = {
  t_path : string;
  t_engine_version : string;
  mutable t_records : record list;  (* newest first *)
  mutable t_counters : counters;
  t_health : health;
}

(* Walk the frames of [data] after the magic.  Returns the payloads in
   file order plus the number of frames dropped (CRC mismatch: skip
   the frame, keep framing; truncation/insane length: stop). *)
let read_frames data =
  let len = String.length data in
  let dropped = ref 0 in
  let rec go off acc =
    if off = len then List.rev acc
    else if off + 8 > len then begin
      incr dropped;
      List.rev acc
    end
    else begin
      let plen = get_u32 data off in
      let crc = get_u32 data (off + 4) in
      if plen < 0 || plen > max_frame || off + 8 + plen > len then begin
        incr dropped;
        List.rev acc
      end
      else begin
        let payload = String.sub data (off + 8) plen in
        if crc32 payload <> crc then begin
          incr dropped;
          go (off + 8 + plen) acc
        end
        else go (off + 8 + plen) (payload :: acc)
      end
    end
  in
  let payloads = go 0 [] in
  (payloads, !dropped)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let same_slot a b = a.r_qid = b.r_qid && a.r_depth = b.r_depth

let open_ ?engine_version:(ev = engine_version) path =
  if not (Sys.file_exists path) then
    {
      t_path = path;
      t_engine_version = ev;
      t_records = [];
      t_counters = zero_counters;
      t_health =
        { h_created = true; h_invalidated = None; h_records_dropped = 0 };
    }
  else begin
    let data = read_file path in
    let fresh reason =
      {
        t_path = path;
        t_engine_version = ev;
        t_records = [];
        t_counters = zero_counters;
        t_health =
          {
            h_created = String.length data = 0;
            h_invalidated =
              (if String.length data = 0 then None else Some reason);
            h_records_dropped = 0;
          };
      }
    in
    if String.length data < String.length magic then fresh "bad magic"
    else if String.sub data 0 (String.length magic) <> magic then
      fresh "bad magic"
    else begin
      let body =
        String.sub data (String.length magic)
          (String.length data - String.length magic)
      in
      let payloads, dropped = read_frames body in
      match payloads with
      | [] -> fresh "missing header"
      | header :: rest -> (
          match tokens header with
          | [ "H"; fv; hev ] when int_of_string_opt fv <> None ->
              if int_of_string fv <> format_version then
                fresh
                  (Printf.sprintf "format version mismatch (%s, want %d)" fv
                     format_version)
              else if hev <> ev then
                fresh
                  (Printf.sprintf "engine version mismatch (%s, want %s)" hev
                     ev)
              else begin
                let dropped = ref dropped in
                let records = ref [] and counters = ref zero_counters in
                List.iter
                  (fun payload ->
                    match
                      if String.length payload = 0 then raise Malformed
                      else payload.[0]
                    with
                    | 'Q' -> (
                        match parse_record payload with
                        | r ->
                            records :=
                              r :: List.filter (fun o -> not (same_slot o r))
                                     !records
                        | exception Malformed -> incr dropped)
                    | 'C' -> (
                        match parse_counters payload with
                        | c -> counters := c
                        | exception Malformed -> incr dropped)
                    | _ | (exception Malformed) -> incr dropped)
                  rest;
                {
                  t_path = path;
                  t_engine_version = ev;
                  t_records = !records;
                  t_counters = !counters;
                  t_health =
                    {
                      h_created = false;
                      h_invalidated = None;
                      h_records_dropped = !dropped;
                    };
                }
              end
          | _ -> fresh "bad header")
    end
  end

let path t = t.t_path
let health t = t.t_health
let records t = List.rev t.t_records

let find t ~qid ~depth =
  List.find_opt (fun r -> r.r_qid = qid && r.r_depth = depth) t.t_records

let add t r =
  t.t_records <- r :: List.filter (fun o -> not (same_slot o r)) t.t_records

let bump t event =
  let c = t.t_counters in
  t.t_counters <-
    (match event with
    | `Query -> { c with c_queries = c.c_queries + 1 }
    | `Warm -> { c with c_warm_hits = c.c_warm_hits + 1 }
    | `Cold -> { c with c_colds = c.c_colds + 1 }
    | `Rejected -> { c with c_rejected = c.c_rejected + 1 })

let counters t = t.t_counters

(* A record whose frame would exceed the bound is left out and
   counted, so no frame is written that the next {!open_} would read
   as damage (and stop at, losing every later record with it). *)
let encode ~max_frame ~engine_version counters records =
  let payloads = List.map (fun r -> (r, record_to_string r)) records in
  let kept, refused =
    List.partition (fun (_, p) -> String.length p <= max_frame) payloads
  in
  let counters =
    { counters with c_refused = counters.c_refused + List.length refused }
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_frame b (header_payload ~engine_version);
  add_frame b (counters_payload counters);
  List.iter (fun (_, p) -> add_frame b p) kept;
  (Buffer.contents b, counters, List.map fst kept)

let commit t =
  let image, counters, kept =
    encode ~max_frame ~engine_version:t.t_engine_version t.t_counters
      (List.rev t.t_records)
  in
  t.t_counters <- counters;
  t.t_records <- List.rev kept;
  let tmp = Printf.sprintf "%s.tmp.%d" t.t_path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc image);
  Unix.rename tmp t.t_path
