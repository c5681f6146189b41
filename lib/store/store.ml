type verdict =
  | V_ok of int
  | V_counterexample of int list
  | V_no_fair_cycle
  | V_lasso of { stem : int list; cycle : int list }

type seed = { sd_script : int list; sd_sleep : int list }

type frontier = {
  f_base_runs : int;
  f_base_digest : int;
  f_seeds : seed list;
}

type record = {
  r_qid : int;
  r_depth : int;
  r_max_period : int;
  r_pump_ticks : int;
  r_runs : int;
  r_steps : int;
  r_verdict : verdict;
  r_frontier : frontier option;
}

type counters = {
  c_queries : int;
  c_warm_hits : int;
  c_resumes : int;
  c_colds : int;
  c_rejected : int;
  c_steps_saved : int;
}

type health = {
  h_created : bool;
  h_invalidated : string option;
  h_records_dropped : int;
}

let format_version = 1

(* Bump the engine tag whenever menus, reductions, fingerprint or
   frontier semantics change — a stored verdict is only as good as the
   engine that would reproduce it.  The OCaml version rides along
   because history digests go through the runtime's value hashing. *)
let engine_version = Printf.sprintf "slx-engine-9+ocaml-%s" Sys.ocaml_version

let magic = "SLXSTOR1"

let zero_counters =
  {
    c_queries = 0;
    c_warm_hits = 0;
    c_resumes = 0;
    c_colds = 0;
    c_rejected = 0;
    c_steps_saved = 0;
  }

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

let record_payload r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "Q %d %d %d %d %d %d\n" r.r_qid r.r_depth r.r_max_period
       r.r_pump_ticks r.r_runs r.r_steps);
  Buffer.add_string b (verdict_lines r.r_verdict);
  Buffer.add_char b '\n';
  (match r.r_frontier with
  | None -> Buffer.add_string b "nofr"
  | Some f ->
      Buffer.add_string b
        (Printf.sprintf "fr %d %d %d" f.f_base_runs f.f_base_digest
           (List.length f.f_seeds));
      List.iter
        (fun s ->
          Buffer.add_string b
            (Printf.sprintf "\ns %d %s %d %s" (List.length s.sd_script)
               (ints_to_string s.sd_script) (List.length s.sd_sleep)
               (ints_to_string s.sd_sleep)))
        f.f_seeds);
  Buffer.contents b

let counters_payload c =
  Printf.sprintf "C %d %d %d %d %d %d" c.c_queries c.c_warm_hits c.c_resumes
    c.c_colds c.c_rejected c.c_steps_saved

let header_payload ~engine_version =
  Printf.sprintf "H %d %s" format_version engine_version

exception Malformed

(* Empty-list fields serialize as nothing, leaving double or trailing
   spaces ("s 0  0 "); dropping empty tokens makes those round-trip. *)
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

let parse_seed line =
  match tokens line with
  | "s" :: k :: rest ->
      let script, rest = take_ints (int_tok k) rest in
      (match rest with
      | m :: rest ->
          let sleep, extra = take_ints (int_tok m) rest in
          if extra <> [] then raise Malformed;
          { sd_script = script; sd_sleep = sleep }
      | [] -> raise Malformed)
  | _ -> raise Malformed

let parse_record payload =
  match String.split_on_char '\n' payload with
  | q :: v :: fr :: seeds -> (
      match tokens q with
      | [ "Q"; qid; depth; mp; pt; runs; steps ] ->
          let r_verdict = parse_verdict v in
          let r_frontier =
            match tokens fr with
            | [ "nofr" ] ->
                if seeds <> [] then raise Malformed;
                None
            | [ "fr"; base_runs; base_digest; nseeds ] ->
                if List.length seeds <> int_tok nseeds then raise Malformed;
                Some
                  {
                    f_base_runs = int_tok base_runs;
                    f_base_digest = int_tok base_digest;
                    f_seeds = List.map parse_seed seeds;
                  }
            | _ -> raise Malformed
          in
          {
            r_qid = int_tok qid;
            r_depth = int_tok depth;
            r_max_period = int_tok mp;
            r_pump_ticks = int_tok pt;
            r_runs = int_tok runs;
            r_steps = int_tok steps;
            r_verdict;
            r_frontier;
          }
      | _ -> raise Malformed)
  | _ -> raise Malformed

let parse_counters payload =
  match tokens payload with
  | [ "C"; q; w; r; c; x; s ] ->
      {
        c_queries = int_tok q;
        c_warm_hits = int_tok w;
        c_resumes = int_tok r;
        c_colds = int_tok c;
        c_rejected = int_tok x;
        c_steps_saved = int_tok s;
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

(* The sane upper bound on one frame: seeds are small int lists, so a
   larger length field means a corrupted frame, not a big record. *)
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
          | [ "H"; fv; hev ] when int_of_string_opt fv = Some format_version
            ->
              if hev <> ev then
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

let resumable r =
  r.r_frontier <> None
  && match r.r_verdict with V_ok _ | V_no_fair_cycle -> true | _ -> false

let best_resumable t ~qid ~depth =
  List.fold_left
    (fun best r ->
      if r.r_qid = qid && r.r_depth < depth && resumable r then
        match best with
        | Some b when b.r_depth >= r.r_depth -> best
        | _ -> Some r
      else best)
    None t.t_records

let add t r =
  t.t_records <- r :: List.filter (fun o -> not (same_slot o r)) t.t_records

let bump t event =
  let c = t.t_counters in
  t.t_counters <-
    (match event with
    | `Query -> { c with c_queries = c.c_queries + 1 }
    | `Warm saved ->
        {
          c with
          c_warm_hits = c.c_warm_hits + 1;
          c_steps_saved = c.c_steps_saved + max 0 saved;
        }
    | `Resume saved ->
        {
          c with
          c_resumes = c.c_resumes + 1;
          c_steps_saved = c.c_steps_saved + max 0 saved;
        }
    | `Cold -> { c with c_colds = c.c_colds + 1 }
    | `Rejected -> { c with c_rejected = c.c_rejected + 1 })

let counters t = t.t_counters

let commit t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_frame b (header_payload ~engine_version:t.t_engine_version);
  add_frame b (counters_payload t.t_counters);
  List.iter (fun r -> add_frame b (record_payload r)) (List.rev t.t_records);
  let tmp = Printf.sprintf "%s.tmp.%d" t.t_path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc b);
  Unix.rename tmp t.t_path
