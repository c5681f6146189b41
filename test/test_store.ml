(* The persistent verdict store's suite (ISSUE: persistent fingerprint
   store + slx serve).

   Three layers, mirroring the subsystem:
   - the codec: round-trips, and every corruption mode the format
     promises to survive — truncated tails and flipped bytes drop
     frames (counted, never fatal), version/magic mismatches
     invalidate wholesale;
   - the policy ({!Slx_store.Persist}): cold runs record, exact
     re-queries warm-serve (witnesses replayed, lassos re-pumped),
     deeper queries run cold and do exactly the store-less work — and
     a corrupt or mismatched store degrades to cold with the identical
     verdict;
   - the differential contract, on the whole audit registry: with the
     store in any state (off, cold, warm, holding a shallower record)
     the verdict, the run count, the digest, the step count and the
     lex-least witness are byte-identical. *)

open Slx_sim
open Slx_core
open Slx_liveness
open Support
module Store = Slx_store.Store
module Persist = Slx_store.Persist
module Audit = Slx_analysis.Audit
module Registry = Slx_analysis.Audit_registry

let temp_store () =
  let path = Filename.temp_file "slx_test" ".store" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let show_script pp_inv ds =
  String.concat ";"
    (List.map
       (function
         | Driver.Schedule p -> Printf.sprintf "S%d" p
         | Driver.Invoke (p, i) -> Printf.sprintf "I%d(%s)" p (pp_inv i)
         | Driver.Crash p -> Printf.sprintf "C%d" p
         | Driver.Stop -> "stop")
       ds)

(* ------------------------------------------------------------------ *)
(* Codec: round-trip and corruption.                                   *)

let sample_records =
  [
    {
      Store.r_qid = 11;
      r_depth = 5;
      r_max_period = 0;
      r_pump_ticks = 0;
      r_runs = 42;
      r_steps = 420;
      r_verdict = Store.V_ok 42;
    }
    ;
    {
      Store.r_qid = 11;
      r_depth = 7;
      r_max_period = 0;
      r_pump_ticks = 0;
      r_runs = 0;
      r_steps = 9;
      r_verdict = Store.V_counterexample [ 5; 9; 2 ];
    }
    ;
    {
      Store.r_qid = 22;
      r_depth = 6;
      r_max_period = 3;
      r_pump_ticks = 24;
      r_runs = 100;
      r_steps = 1000;
      r_verdict = Store.V_no_fair_cycle;
    }
    ;
    {
      Store.r_qid = 33;
      r_depth = 8;
      r_max_period = 4;
      r_pump_ticks = 32;
      r_runs = 7;
      r_steps = 77;
      (* An empty stem must survive the line codec. *)
      r_verdict = Store.V_lasso { stem = []; cycle = [ 0; 4 ] };
    }
  ]

let populate path =
  let st = Store.open_ path in
  List.iter (Store.add st) sample_records;
  Store.bump st `Query;
  Store.bump st `Cold;
  Store.bump st `Query;
  Store.bump st `Warm;
  Store.commit st;
  st

let test_round_trip () =
  let path = temp_store () in
  let _ = populate path in
  let st = Store.open_ path in
  let h = Store.health st in
  check_bool "reopen is clean" true
    (h.Store.h_invalidated = None && h.Store.h_records_dropped = 0);
  Alcotest.(check int) "all records survive" 4 (List.length (Store.records st));
  List.iter
    (fun r ->
      match Store.find st ~qid:r.Store.r_qid ~depth:r.Store.r_depth with
      | Some r' -> check_bool "record round-trips" true (r = r')
      | None -> Alcotest.failf "record (%d, %d) lost" r.Store.r_qid r.Store.r_depth)
    sample_records;
  let c = Store.counters st in
  check_bool "counters round-trip" true
    (c.Store.c_queries = 2 && c.Store.c_warm_hits = 1 && c.Store.c_colds = 1)

(* The record codec the serve workers use: every verdict kind
   round-trips under zero and non-zero budgets; a payload cut short or
   carrying a non-numeric field is an [Error], never a record. *)
let test_record_string () =
  let variants r =
    [
      r;
      { r with Store.r_max_period = 0; r_pump_ticks = 0 };
      { r with Store.r_max_period = 5; r_pump_ticks = 40 };
    ]
  in
  List.iter
    (fun r ->
      let s = Store.record_to_string r in
      check_bool ("round-trips: " ^ String.escaped s) true
        (Store.record_of_string s = Ok r);
      let refused what s' =
        check_bool
          (Printf.sprintf "%s refused: %s" what (String.escaped s'))
          true
          (Result.is_error (Store.record_of_string s'))
      in
      refused "last field dropped" (String.sub s 0 (String.rindex s ' '));
      refused "verdict line dropped" (String.sub s 0 (String.index s '\n'));
      refused "empty" "";
      let verdict_line = List.nth (String.split_on_char '\n' s) 1 in
      let q_line fields =
        "Q " ^ String.concat " " fields ^ "\n" ^ verdict_line
      in
      let ints = List.map string_of_int in
      let { Store.r_qid; r_depth; r_max_period = mp; r_pump_ticks = pt;
            r_runs; r_steps; _ } =
        r
      in
      check_bool "the rebuilt payload is the codec's" true
        (q_line (ints [ r_qid; r_depth; mp; pt; r_runs; r_steps ]) = s);
      refused "non-numeric qid"
        (q_line ("x" :: ints [ r_depth; mp; pt; r_runs; r_steps ]));
      refused "non-numeric runs"
        (q_line
           (ints [ r_qid; r_depth; mp; pt ] @ [ "many"; string_of_int r_steps ])))
    (List.concat_map variants sample_records)

let file_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let write_bytes path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_truncated_tail () =
  let path = temp_store () in
  let _ = populate path in
  let b = file_bytes path in
  write_bytes path (Bytes.sub b 0 (Bytes.length b - 3));
  let st = Store.open_ path in
  let h = Store.health st in
  check_bool "not invalidated wholesale" true (h.Store.h_invalidated = None);
  check_bool "the torn tail frame is counted" true
    (h.Store.h_records_dropped >= 1);
  (* Counters are committed right after the header and records
     oldest-first after them, so a torn tail costs exactly the
     newest record: everything before it must survive. *)
  Alcotest.(check int) "earlier frames survive" 3
    (List.length (Store.records st));
  check_bool "counters frame is intact" true
    ((Store.counters st).Store.c_queries = 2)

let test_crc_flip () =
  let path = temp_store () in
  let _ = populate path in
  let b = file_bytes path in
  let off = Bytes.length b - 5 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
  write_bytes path b;
  let st = Store.open_ path in
  let h = Store.health st in
  check_bool "not invalidated wholesale" true (h.Store.h_invalidated = None);
  check_bool "the corrupt frame is dropped and counted" true
    (h.Store.h_records_dropped >= 1);
  check_bool "other frames survive" true (List.length (Store.records st) >= 3)

let test_bad_magic () =
  let path = temp_store () in
  let _ = populate path in
  let b = file_bytes path in
  Bytes.set b 0 'X';
  write_bytes path b;
  let st = Store.open_ path in
  check_bool "whole file invalidated" true
    ((Store.health st).Store.h_invalidated <> None);
  Alcotest.(check int) "read as empty" 0 (List.length (Store.records st))

(* CRC-32 (IEEE 802.3), bitwise: enough to forge frames by hand. *)
let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let test_engine_mismatch () =
  (* Deciding live leaves at their parents and pumping without replays
     changed the steps a live record stores, checking crash leaves at
     their parents changed the steps a record with a crash budget
     stores, pruning dead crash children before it changed them under
     DPOR, and the canonical crash placement before that changed
     witnesses, certificates and run counts: a store an earlier engine
     wrote is not read warm. *)
  check_bool "engine generation 17" true
    (String.starts_with ~prefix:"slx-engine-17+" Store.engine_version);
  List.iter
    (fun generation ->
      let previous = temp_store () in
      let st =
        Store.open_
          ~engine_version:
            (Printf.sprintf "slx-engine-%d+ocaml-%s" generation
               Sys.ocaml_version)
          previous
      in
      List.iter (Store.add st) sample_records;
      Store.commit st;
      let st = Store.open_ previous in
      check_bool
        (Printf.sprintf "an slx-engine-%d store is invalidated" generation)
        true
        ((Store.health st).Store.h_invalidated <> None
        && Store.records st = []))
    [ 13; 14; 15; 16 ];
  let path = temp_store () in
  let _ = populate path in
  let st = Store.open_ ~engine_version:"slx-engine-bogus" path in
  check_bool "engine mismatch invalidates" true
    ((Store.health st).Store.h_invalidated <> None);
  Alcotest.(check int) "no stale verdicts cross an engine change" 0
    (List.length (Store.records st));
  (* The next commit under the new engine re-founds the file. *)
  Store.add st (List.hd sample_records);
  Store.commit st;
  let st' = Store.open_ ~engine_version:"slx-engine-bogus" path in
  check_bool "re-founded store is clean" true
    ((Store.health st').Store.h_invalidated = None
    && List.length (Store.records st') = 1);
  (* A file written under the previous codec — the same engine, but
     the old format version in its header and old-shape counter and
     record lines — is invalidated wholesale too, and the next commit
     overwrites it in the current format. *)
  let frame payload =
    let b = Buffer.create 64 in
    let u32 v =
      for i = 0 to 3 do
        Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
      done
    in
    u32 (String.length payload);
    u32 (crc32 payload);
    Buffer.add_string b payload;
    Buffer.contents b
  in
  write_bytes path
    (Bytes.of_string
       ("SLXSTOR1"
       ^ frame
           (Printf.sprintf "H %d %s" (Store.format_version - 1)
              Store.engine_version)
       ^ frame "C 2 1 0 1 0 420"
       ^ frame "Q 11 5 0 0 42 420\nok 42\nfr 40 123 1\ns 1 16 0 "));
  let old = Store.open_ path in
  check_bool "an older format version invalidates" true
    ((Store.health old).Store.h_invalidated <> None);
  Alcotest.(check int) "no record crosses a format change" 0
    (List.length (Store.records old));
  Store.add old (List.hd sample_records);
  Store.commit old;
  let reopened = Store.open_ path in
  check_bool "the next commit overwrites it in the current format" true
    ((Store.health reopened).Store.h_invalidated = None
    && Store.records reopened = [ List.hd sample_records ])

let test_qid_binds_flags () =
  let base ?dpor ?symmetry ?(registry_digest = 99) () =
    Persist.query_key ~ident:"cas" ~check:"consensus-safety" ~n:2
      ~registry_digest ?dpor ?symmetry ()
  in
  let q0 = base () in
  List.iteri
    (fun i q ->
      check_bool (Printf.sprintf "flag variant %d lands on a fresh qid" i)
        false (q = q0))
    [
      base ~dpor:true ();
      base ~symmetry:true ();
      base ~registry_digest:100 ();
      Persist.query_key ~ident:"cas" ~check:"live:(1,1)-freedom" ~n:2
        ~registry_digest:99 ();
    ];
  check_bool "the digest is deterministic" true (q0 = base ());
  (* A mismatched qid is a store miss, not a wrong answer. *)
  let path = temp_store () in
  let st = Store.open_ path in
  Store.add st
    { (List.hd sample_records) with Store.r_qid = q0; r_depth = 5 };
  check_bool "exact qid hits" true (Store.find st ~qid:q0 ~depth:5 <> None);
  check_bool "flag-variant qid misses" true
    (Store.find st ~qid:(base ~dpor:true ()) ~depth:5 = None)

let test_supersede () =
  let path = temp_store () in
  let st = Store.open_ path in
  let mk depth verdict =
    {
      Store.r_qid = 7;
      r_depth = depth;
      r_max_period = 0;
      r_pump_ticks = 0;
      r_runs = 1;
      r_steps = 1;
      r_verdict = verdict;
    }
  in
  Store.add st (mk 4 (Store.V_ok 1));
  Store.add st (mk 5 (Store.V_counterexample [ 1 ]));
  Store.add st (mk 4 (Store.V_ok 9));
  Store.commit st;
  let st = Store.open_ path in
  (match Store.find st ~qid:7 ~depth:4 with
  | Some { Store.r_verdict = Store.V_ok 9; _ } -> ()
  | _ -> Alcotest.fail "later record must supersede the slot");
  Alcotest.(check int) "one record per slot" 2 (List.length (Store.records st))

(* ------------------------------------------------------------------ *)
(* Append commits.                                                     *)

let file_string path = Bytes.to_string (file_bytes path)

(* The image a full rewrite of a handle's state writes. *)
let full_image ?(engine_version = Store.engine_version) st =
  let image, _, _ =
    Store.encode ~max_frame:(1 lsl 26) ~engine_version (Store.counters st)
      (Store.records st)
  in
  image

let clean st =
  let h = Store.health st in
  h.Store.h_invalidated = None && h.Store.h_records_dropped = 0

let mk_record qid depth verdict =
  {
    Store.r_qid = qid;
    r_depth = depth;
    r_max_period = 0;
    r_pump_ticks = 0;
    r_runs = 1;
    r_steps = qid + depth;
    r_verdict = verdict;
  }

(* A commit after a known image writes only the new frames: the file
   before it is a prefix of the file after it, and the inode stays. *)
let test_append_in_place () =
  let path = temp_store () in
  let st = populate path in
  let ino = (Unix.stat path).Unix.st_ino in
  check_bool "the first commit is a full image" true
    (file_string path = full_image st);
  let commit_one r =
    let before = file_string path in
    Store.add st r;
    Store.bump st `Cold;
    Store.commit st;
    let after = file_string path in
    check_bool "the commit appended" true
      (String.starts_with ~prefix:before after);
    let c = Store.counters st in
    (* The tail is the new record's frame and one counters frame. *)
    check_int "only the new frames"
      (16 + String.length (Store.record_to_string r)
      + String.length
          (Printf.sprintf "C %d %d %d %d %d" c.Store.c_queries
             c.Store.c_warm_hits c.Store.c_colds c.Store.c_rejected
             c.Store.c_refused))
      (String.length after - String.length before)
  in
  commit_one (mk_record 50 3 (Store.V_ok 3));
  commit_one (mk_record 11 5 (Store.V_ok 9));
  check_int "in place" ino (Unix.stat path).Unix.st_ino;
  let st' = Store.open_ path in
  check_bool "an appended file reads clean" true (clean st');
  check_bool "and reads the handle's state" true
    (Store.records st' = Store.records st
    && Store.counters st' = Store.counters st)

(* Truncating the file at every offset inside the last appended tail
   (two records, then the counters frame) opens to the previous
   commit's counters and records plus, at a frame boundary, the tail's
   records whose frames are whole: never a wrong record, and at most
   one frame dropped.  A handle that dropped a frame rewrites on its
   next commit, and the file then reads clean. *)
let test_torn_append () =
  let path = temp_store () in
  let st = populate path in
  let prev = file_string path in
  let prev_records = Store.records st and prev_counters = Store.counters st in
  let tail_records =
    [ mk_record 60 4 (Store.V_counterexample [ 1; 2; 3 ]);
      mk_record 11 5 (Store.V_ok 7) ]
  in
  List.iter (Store.add st) tail_records;
  Store.bump st `Query;
  Store.commit st;
  let whole = file_string path in
  check_bool "the tail was appended" true
    (String.starts_with ~prefix:prev whole);
  let expected_after k =
    List.fold_left
      (fun acc r ->
        List.filter
          (fun o ->
            not
              (o.Store.r_qid = r.Store.r_qid
              && o.Store.r_depth = r.Store.r_depth))
          acc
        @ [ r ])
      prev_records
      (List.filteri (fun i _ -> i < k) tail_records)
  in
  let torn = temp_store () in
  for cut = String.length prev + 1 to String.length whole - 1 do
    write_bytes torn (Bytes.of_string (String.sub whole 0 cut));
    let st = Store.open_ torn in
    let h = Store.health st in
    let what = Printf.sprintf "cut at %d" cut in
    check_bool (what ^ ": not invalidated") true (h.Store.h_invalidated = None);
    check_bool (what ^ ": at most one frame dropped") true
      (h.Store.h_records_dropped <= 1);
    check_bool (what ^ ": the previous commit's counters") true
      (Store.counters st = prev_counters);
    check_bool (what ^ ": the previous records plus whole tail frames") true
      (List.exists (fun k -> Store.records st = expected_after k) [ 0; 1; 2 ]);
    let records = Store.records st and counters = Store.counters st in
    Store.commit st;
    if h.Store.h_records_dropped > 0 then
      check_bool (what ^ ": the next commit rewrites") true
        (file_string torn = full_image st);
    let st' = Store.open_ torn in
    check_bool (what ^ ": then reads clean") true
      (clean st'
      && Store.records st' = records
      && Store.counters st' = counters)
  done

(* A second writer replaces the file between two commits of the first
   (a rename under another engine version, or an append under the same
   one): the first handle's next commit must not extend that file. *)
let test_foreign_writer () =
  (* Another engine generation: a tag of the same length, so the
     foreign image below has exactly the first one's size and only
     the inode tells the two files apart. *)
  let foreign = "slx-engine-99+ocaml-" ^ Sys.ocaml_version in
  check_int "same-length engine tags" (String.length Store.engine_version)
    (String.length foreign);
  let path = temp_store () in
  let a = Store.open_ path in
  let ra = mk_record 1 1 (Store.V_ok 1) in
  Store.add a ra;
  Store.commit a;
  let size_a = String.length (file_string path) in
  let b = Store.open_ ~engine_version:foreign path in
  check_bool "the foreign handle invalidates" true
    ((Store.health b).Store.h_invalidated <> None);
  let rb = mk_record 2 2 (Store.V_ok 2) in
  Store.add b rb;
  Store.commit b;
  check_int "the foreign image has the first one's size" size_a
    (String.length (file_string path));
  let ra' = mk_record 3 3 Store.V_no_fair_cycle in
  Store.add a ra';
  Store.commit a;
  check_bool "the first handle rewrote under its own header" true
    (file_string path = full_image a);
  let mine = Store.open_ path
  and theirs = Store.open_ ~engine_version:foreign path in
  check_bool "its own engine reads its records" true
    (clean mine && Store.records mine = [ ra; ra' ]);
  check_bool "the other engine reads none" true
    ((Store.health theirs).Store.h_invalidated <> None
    && Store.records theirs = []);
  Store.add b (mk_record 4 4 (Store.V_ok 4));
  Store.commit b;
  check_bool "the foreign handle rewrote under its header" true
    (file_string path = full_image ~engine_version:foreign b);
  let mine = Store.open_ path
  and theirs = Store.open_ ~engine_version:foreign path in
  check_bool "now the first engine reads none" true
    ((Store.health mine).Store.h_invalidated <> None
    && Store.records mine = []);
  check_bool "and the other reads only its own" true
    (clean theirs && Store.records theirs = Store.records b);
  (* Same engine: the second handle appends to the file the first
     knows, so the size no longer matches and the first rewrites. *)
  let path = temp_store () in
  let a = Store.open_ path in
  Store.add a ra;
  Store.commit a;
  let b = Store.open_ path in
  Store.add b rb;
  Store.commit b;
  let after_b = file_string path in
  check_bool "the second handle appended" true
    (String.length after_b > String.length (full_image a));
  Store.add a ra';
  Store.commit a;
  check_bool "the first handle rewrote rather than append" true
    (file_string path = full_image a);
  let st = Store.open_ path in
  check_bool "last writer's state, clean" true
    (clean st && Store.records st = [ ra; ra' ])

type op = Add of Store.record | Bump of [ `Query | `Warm | `Cold | `Rejected ]
        | Commit | Reopen

let gen_op =
  QCheck2.Gen.(
    let gen_codes = list_size (int_range 0 12) (int_range 0 40) in
    let gen_verdict =
      oneof
        [
          map (fun n -> Store.V_ok n) (int_range 0 1000);
          map (fun c -> Store.V_counterexample c) gen_codes;
          return Store.V_no_fair_cycle;
          map2 (fun stem cycle -> Store.V_lasso { stem; cycle }) gen_codes
            gen_codes;
        ]
    in
    frequency
      [
        ( 5,
          let* qid = int_range 0 6 and* depth = int_range 1 3
          and* v = gen_verdict in
          return (Add (mk_record qid depth v)) );
        ( 2,
          map (fun e -> Bump e)
            (oneofl [ `Query; `Warm; `Cold; `Rejected ]) );
        (2, return Commit);
        (1, return Reopen);
      ])

let show_op = function
  | Add r -> "add " ^ String.escaped (Store.record_to_string r)
  | Bump _ -> "bump"
  | Commit -> "commit"
  | Reopen -> "reopen"

(* Any sequence of adds, bumps and commits, with reopens after
   commits, reads back what one full rewrite of the same state reads;
   and the file never passes twice the full image of the state its
   writer last rewrote or read. *)
let prop_append_equals_rewrite =
  let path = temp_store () and reference = temp_store () in
  QCheck2.Test.make ~name:"append commits read as one full rewrite"
    ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 60) gen_op)
    (fun ops ->
      write_bytes path Bytes.empty;
      let st = ref (Store.open_ path) and full = ref 0 in
      let commit () =
        Store.commit !st;
        let data = file_string path in
        let image = full_image !st in
        if data = image then full := String.length image;
        if String.length data > 2 * !full then
          QCheck2.Test.fail_reportf "%d bytes past twice the image of %d"
            (String.length data) !full
      in
      List.iter
        (function
          | Add r -> Store.add !st r
          | Bump e -> Store.bump !st e
          | Commit -> commit ()
          | Reopen ->
              commit ();
              st := Store.open_ path;
              full := String.length (full_image !st))
        ops;
      commit ();
      write_bytes reference (Bytes.of_string (full_image !st));
      let appended = Store.open_ path and rewritten = Store.open_ reference in
      clean appended
      && Store.records appended = Store.records rewritten
      && Store.counters appended = Store.counters rewritten
      && Store.records appended = Store.records !st
      && Store.counters appended = Store.counters !st)

(* ------------------------------------------------------------------ *)
(* Persist policy on the consensus engines.                            *)

(* The writer keeps the reader's frame bound: a record whose frame
   would exceed it is left out of the image and counted, instead of
   being written as a frame the next open reads as damage (stopping
   there, so every later record would be lost too).  The bound is
   lowered to 64 bytes here; the shipped one is 64 MiB. *)
let test_oversized_record_refused () =
  let mk qid codes =
    {
      Store.r_qid = qid;
      r_depth = 8;
      r_max_period = 0;
      r_pump_ticks = 0;
      r_runs = 0;
      r_steps = 1;
      r_verdict = Store.V_counterexample codes;
    }
  in
  let big = mk 2 (List.init 40 (fun i -> i)) in
  check_bool "the big record's frame exceeds the bound" true
    (String.length (Store.record_to_string big) > 64);
  let image, counters, kept =
    Store.encode ~max_frame:64 ~engine_version:Store.engine_version
      {
        Store.c_queries = 3;
        c_warm_hits = 0;
        c_colds = 3;
        c_rejected = 0;
        c_refused = 0;
      }
      [ mk 1 [ 5; 9 ]; big; mk 3 [ 4 ] ]
  in
  Alcotest.(check (list int)) "the oversized record is left out" [ 1; 3 ]
    (List.map (fun r -> r.Store.r_qid) kept);
  Alcotest.(check int) "the refusal is counted" 1 counters.Store.c_refused;
  let path = temp_store () in
  Out_channel.with_open_bin path (fun oc -> output_string oc image);
  let st = Store.open_ path in
  check_bool "no frame is read as damage" true
    ((Store.health st).Store.h_records_dropped = 0);
  Alcotest.(check (list int)) "the records around the refusal survive" [ 1; 3 ]
    (List.map (fun r -> r.Store.r_qid) (Store.records st));
  Alcotest.(check int) "the count is stored" 1
    (Store.counters st).Store.c_refused

let cas_factory () = Slx_consensus.Cas_consensus.factory ()
let selfish_factory () = Slx_consensus.Selfish_consensus.factory ()

let safety_invoke = Slx_serve.Queries.safety_invoke

let live_invoke = Slx_serve.Queries.live_invoke

let consensus_check = Slx_serve.Queries.check

let pp_consensus_inv (Slx_consensus.Consensus_type.Propose v) =
  "propose " ^ string_of_int v

let safety_qid ?(n = 2) ?(max_crashes = 0) ~ident ~factory () =
  Persist.query_key ~ident ~check:"consensus-safety" ~n
    ~registry_digest:(Persist.instance_digest ~n ~factory)
    ~max_crashes ~dpor:true ~symmetry:true ()

(* A store-backed query as the CLI's --store path runs one: the engine
   call inside [Persist.answer], stored through the record builder and
   warm-served through its validated inverse. *)
let stored_explore ~store ~qid ~n ~factory ~invoke ~depth ~max_crashes
    ~symmetry ~check =
  Persist.answer store ~qid ~depth ~max_period:0 ~pump_ticks:0
    ~served:(Persist.served_exploration ~n ~factory ~invoke ~check)
    ~record:(Persist.exploration_record ~qid ~depth)
    (fun () ->
      Explore.explore ~n ~factory ~invoke ~depth ~max_crashes ~dpor:true
        ~symmetry ~check ())

let stored_live ?(max_crashes = 0) ?max_period ?pump_ticks ~store ~qid ~n
    ~factory ~invoke ~good ~point ~depth () =
  let max_period, pump_ticks =
    Live_explore.budgets ~depth ~max_period ~pump_ticks
  in
  Persist.answer store ~qid ~depth ~max_period ~pump_ticks
    ~served:(Persist.served_live ~n ~factory ~invoke ~good ~point ~pump_ticks)
    ~record:(Persist.live_record ~qid ~depth ~max_period ~pump_ticks)
    (fun () ->
      Live_explore.search ~n ~factory ~invoke ~good ~point ~depth ~max_crashes
        ~max_period ~pump_ticks ~dpor:true ())

let run_safety ?(n = 2) ?(max_crashes = 0) ~store ~qid ~factory ~depth () =
  stored_explore ~store ~qid ~n ~factory ~invoke:safety_invoke ~depth
    ~max_crashes ~symmetry:true ~check:consensus_check

(* What a stored answer must share with the store-less one: outcome,
   runs, digest and the work done. *)
let explore_work e =
  let s = e.Explore.stats in
  ( (match e.Explore.outcome with
    | Explore.Ok n -> Printf.sprintf "ok %d" n
    | Explore.Counterexample _ -> "counterexample"),
    s.Explore_stats.runs,
    s.Explore_stats.history_digest,
    s.Explore_stats.steps_executed )

let check_explore_work name expected got =
  let o, r, d, s = explore_work expected
  and o', r', d', s' = explore_work got in
  Alcotest.(check string) (name ^ ": outcome = storeless") o o';
  Alcotest.(check int) (name ^ ": runs = storeless") r r';
  Alcotest.(check int) (name ^ ": digest = storeless") d d';
  Alcotest.(check int) (name ^ ": steps = storeless") s s'

let test_persist_cold_warm_deeper () =
  let path = temp_store () in
  let st = Store.open_ path in
  let qid = safety_qid ~ident:"cas" ~factory:cas_factory () in
  let plain ?(n = 2) ?(max_crashes = 0) depth =
    Explore.explore ~n ~factory:cas_factory ~invoke:safety_invoke ~depth
      ~max_crashes ~dpor:true ~symmetry:true ~check:consensus_check
      ()
  in
  let runs_of e =
    match e.Explore.outcome with
    | Explore.Ok n -> n
    | Explore.Counterexample _ -> Alcotest.fail "cas must be safe"
  in
  let cold, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  check_bool "first query is cold" true (src = Persist.Cold);
  check_explore_work "cold" (plain 6) cold;
  let warm, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  check_bool "identical re-query is warm" true (src = Persist.Warm);
  Alcotest.(check int) "warm restores the verdict" (runs_of cold)
    (runs_of warm);
  check_bool "warm does no engine work" true
    (warm.Explore.stats.Explore_stats.nodes = 0);
  Alcotest.(check int) "warm reports the stored runs"
    cold.Explore.stats.Explore_stats.runs warm.Explore.stats.Explore_stats.runs;
  let deep, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:8 () in
  check_bool "deeper query is cold" true (src = Persist.Cold);
  check_explore_work "deeper" (plain 8) deep;
  (* A store holding a shallower record costs a deeper query nothing:
     cas n=3 c=2 at depth 10 does exactly the store-less work. *)
  let qid3 =
    safety_qid ~n:3 ~max_crashes:2 ~ident:"cas" ~factory:cas_factory ()
  in
  let run3 depth =
    run_safety ~n:3 ~max_crashes:2 ~store:st ~qid:qid3 ~factory:cas_factory
      ~depth ()
  in
  ignore (run3 8);
  let deep3, src = run3 10 in
  check_bool "cas n=3 c=2 depth 10 is cold" true (src = Persist.Cold);
  check_explore_work "cas n=3 c=2 d=10" (plain ~n:3 ~max_crashes:2 10) deep3;
  let c = Store.counters st in
  check_bool "counters tell the story" true
    (c.Store.c_queries = 5 && c.Store.c_warm_hits = 1 && c.Store.c_colds = 4)

let test_persist_witness_warm () =
  let path = temp_store () in
  let st = Store.open_ path in
  let qid = safety_qid ~ident:"selfish" ~factory:selfish_factory () in
  let witness e =
    match e.Explore.witness_script with
    | Some ds -> show_script pp_consensus_inv ds
    | None -> Alcotest.fail "selfish must yield a counterexample"
  in
  let cold, src =
    run_safety ~store:st ~qid ~factory:selfish_factory ~depth:6 ()
  in
  check_bool "cold source" true (src = Persist.Cold);
  let warm, src =
    run_safety ~store:st ~qid ~factory:selfish_factory ~depth:6 ()
  in
  check_bool "witness served warm after replay validation" true
    (src = Persist.Warm);
  Alcotest.(check string) "identical lex-least witness" (witness cold)
    (witness warm)

let test_persist_corrupt_fallback () =
  let path = temp_store () in
  let st = Store.open_ path in
  let qid = safety_qid ~ident:"cas" ~factory:cas_factory () in
  let first, _ = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  (* Trash the committed file wholesale; the re-opened store must read
     as empty and the query must fall back to a cold run with the
     byte-identical verdict. *)
  write_bytes path (Bytes.of_string "SLXSTOR1 this is not a store");
  let st = Store.open_ path in
  check_bool "corruption is surfaced, not fatal" true
    ((Store.health st).Store.h_invalidated <> None
    || (Store.health st).Store.h_records_dropped > 0);
  let again, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  check_bool "fallback is cold" true (src = Persist.Cold);
  check_bool "verdict identical" true
    (match (first.Explore.outcome, again.Explore.outcome) with
    | Explore.Ok a, Explore.Ok b -> a = b
    | _ -> false)

(* Liveness: cold/warm/deeper-cold, and lasso re-validation on the
   Theorem 5.2 register certificate. *)

let register8_factory () =
  Slx_consensus.Register_consensus.factory ~max_rounds:8 ()

let live_qid ?(max_crashes = 0) ~ident ~factory ~point () =
  Persist.query_key ~ident
    ~check:("live:" ^ Format.asprintf "%a" Freedom.pp point)
    ~n:2
    ~registry_digest:(Persist.instance_digest ~n:2 ~factory)
    ~max_crashes ~dpor:true ()

let live_work r =
  let s = r.Live_explore.stats in
  ( (match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> "no_fair_cycle"
    | Live_explore.Lasso c ->
        show_script pp_consensus_inv c.Lasso.c_stem
        ^ "~"
        ^ show_script pp_consensus_inv c.Lasso.c_cycle),
    s.Explore_stats.runs,
    s.Explore_stats.steps_executed )

let check_live_work name expected got =
  let o, r, s = live_work expected and o', r', s' = live_work got in
  Alcotest.(check string) (name ^ ": verdict = storeless") o o';
  Alcotest.(check int) (name ^ ": runs = storeless") r r';
  Alcotest.(check int) (name ^ ": steps = storeless") s s'

let test_persist_live_cold_warm_deeper () =
  let path = temp_store () in
  let st = Store.open_ path in
  let point = Freedom.obstruction_freedom in
  let qid = live_qid ~ident:"selfish" ~factory:selfish_factory ~point () in
  let good = Slx_consensus.Consensus_type.good in
  let run depth =
    stored_live ~store:st ~qid ~n:2 ~factory:selfish_factory
      ~invoke:live_invoke ~good ~point ~depth ~pump_ticks:32 ()
  in
  let plain depth =
    Live_explore.search ~n:2 ~factory:selfish_factory ~invoke:live_invoke
      ~good ~point ~depth ~pump_ticks:32 ~dpor:true ()
  in
  let cold, src = run 6 in
  check_bool "live cold" true (src = Persist.Cold);
  check_live_work "live cold" (plain 6) cold;
  let warm, src = run 6 in
  check_bool "live warm" true (src = Persist.Warm);
  let (o, _, _), (o', _, _) = (live_work cold, live_work warm) in
  Alcotest.(check string) "warm verdict identical" o o';
  let deep, src = run 8 in
  check_bool "live deeper query is cold" true (src = Persist.Cold);
  check_live_work "live deeper" (plain 8) deep;
  (* Register obstruction n=2 c=1 under a pinned period bound of 2,
     where the suffix cache engages: depth 13 over a stored depth 11
     does exactly the store-less work. *)
  let register_factory () = Slx_consensus.Register_consensus.factory () in
  let qidr =
    live_qid ~max_crashes:1 ~ident:"register" ~factory:register_factory ~point
      ()
  in
  let runr depth =
    stored_live ~store:st ~qid:qidr ~n:2 ~factory:register_factory
      ~invoke:live_invoke ~good ~point ~depth ~max_crashes:1 ~max_period:2 ()
  in
  ignore (runr 11);
  let deepr, src = runr 13 in
  check_bool "register obstruction depth 13 is cold" true (src = Persist.Cold);
  check_live_work "register obstruction d=13"
    (Live_explore.search ~n:2 ~factory:register_factory ~invoke:live_invoke
       ~good ~point ~depth:13 ~max_crashes:1 ~max_period:2 ~dpor:true ())
    deepr

let test_persist_lasso_warm () =
  let path = temp_store () in
  let st = Store.open_ path in
  let point = Freedom.make ~l:1 ~k:2 in
  let qid = live_qid ~ident:"register" ~factory:register8_factory ~point () in
  let good = Slx_consensus.Consensus_type.good in
  let run () =
    stored_live ~store:st ~qid ~n:2 ~factory:register8_factory
      ~invoke:live_invoke ~good ~point ~depth:8 ()
  in
  let cert r =
    match r.Live_explore.outcome with
    | Live_explore.Lasso c -> c
    | Live_explore.No_fair_cycle ->
        Alcotest.fail "register (1,2) at depth 8 must yield a lasso"
  in
  let cold, src = run () in
  check_bool "lasso found cold" true (src = Persist.Cold);
  let warm, src = run () in
  check_bool "lasso re-validated and served warm" true (src = Persist.Warm);
  let b = cert cold and c = cert warm in
  Alcotest.(check string) "identical stem"
    (show_script pp_consensus_inv b.Lasso.c_stem)
    (show_script pp_consensus_inv c.Lasso.c_stem);
  Alcotest.(check string) "identical cycle"
    (show_script pp_consensus_inv b.Lasso.c_cycle)
    (show_script pp_consensus_inv c.Lasso.c_cycle)

(* ------------------------------------------------------------------ *)
(* Differential sweep: every registry case, store off/cold/warm/deeper *)
(* — identical verdicts, runs, digests, steps and lex-least witnesses. *)

let diff_store_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 5 in
  let max_crashes = min c.Audit.c_max_crashes 1 in
  let name = c.Audit.c_name in
  let plain ~depth ~check =
    Explore.explore ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~depth ~max_crashes ~dpor:true ~check ()
  in
  let stored ~store ~qid ~depth ~check =
    stored_explore ~store ~qid ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~depth ~max_crashes ~symmetry:false ~check
  in
  let qid_of ~check_name =
    Persist.query_key ~ident:name ~check:check_name ~n:c.Audit.c_n
      ~registry_digest:
        (Persist.instance_digest ~n:c.Audit.c_n ~factory:c.Audit.c_factory)
      ~max_crashes ~dpor:true ()
  in
  (* Passing leg: identity across store states, including a store that
     already holds the query one level shallower. *)
  let st = Store.open_ (temp_store ()) in
  let qid = qid_of ~check_name:"diff-true" in
  let runs e =
    match e.Explore.outcome with
    | Explore.Ok n -> n
    | Explore.Counterexample _ ->
        Alcotest.failf "%s: always-true check failed" name
  in
  let base = plain ~depth ~check:(fun _ -> true) in
  let shallow, src =
    stored ~store:st ~qid ~depth:(depth - 1) ~check:(fun _ -> true)
  in
  check_bool (name ^ ": shallow leg is cold") true (src = Persist.Cold);
  ignore (runs shallow);
  let deeper, src = stored ~store:st ~qid ~depth ~check:(fun _ -> true) in
  check_bool (name ^ ": full-depth leg is cold") true (src = Persist.Cold);
  check_explore_work name base deeper;
  let warm, src = stored ~store:st ~qid ~depth ~check:(fun _ -> true) in
  check_bool (name ^ ": re-query is warm") true (src = Persist.Warm);
  Alcotest.(check int) (name ^ ": warm runs = storeless") (runs base)
    (runs warm);
  (* Failing leg: lex-least witness identity cold vs warm (the warm
     hit replays the stored script through the real engine). *)
  let qidx = qid_of ~check_name:"diff-false" in
  let witness e =
    match e.Explore.witness_script with
    | Some ds -> show_script c.Audit.c_pp_inv ds
    | None -> Alcotest.failf "%s: always-false check found no witness" name
  in
  let basex = witness (plain ~depth ~check:(fun _ -> false)) in
  let coldx, src =
    stored ~store:st ~qid:qidx ~depth ~check:(fun _ -> false)
  in
  check_bool (name ^ ": failing leg is cold") true (src = Persist.Cold);
  Alcotest.(check string) (name ^ ": cold witness = storeless") basex
    (witness coldx);
  let warmx, src =
    stored ~store:st ~qid:qidx ~depth ~check:(fun _ -> false)
  in
  check_bool (name ^ ": failing leg warm-serves") true (src = Persist.Warm);
  Alcotest.(check string) (name ^ ": warm witness = storeless") basex
    (witness warmx)

let test_store_differential () = List.iter diff_store_case (Registry.all ())

let diff_store_live_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 5 in
  let name = c.Audit.c_name in
  let pump_ticks = 4 * depth in
  let point = Freedom.make ~l:1 ~k:1 in
  let good _ = false in
  let qid =
    Persist.query_key ~ident:name ~check:"live:diff" ~n:c.Audit.c_n
      ~registry_digest:
        (Persist.instance_digest ~n:c.Audit.c_n ~factory:c.Audit.c_factory)
      ~dpor:true ()
  in
  let plain ~depth =
    Live_explore.search ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~good ~point ~depth ~pump_ticks ~dpor:true ()
  in
  let stored ~store ~depth =
    stored_live ~store ~qid ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~good ~point ~depth ~pump_ticks ()
  in
  (* Verdict fingerprint only: a warm hit synthesizes zero-work stats
     (but the stored run count), so run and step counts are compared
     separately. *)
  let fingerprint r =
    match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> "no_fair_cycle"
    | Live_explore.Lasso l ->
        show_script c.Audit.c_pp_inv l.Lasso.c_stem
        ^ "~" ^ show_script c.Audit.c_pp_inv l.Lasso.c_cycle
  in
  let st = Store.open_ (temp_store ()) in
  let plain_run = plain ~depth in
  let base = fingerprint plain_run in
  let shallow, src = stored ~store:st ~depth:(depth - 1) in
  check_bool (name ^ ": live shallow leg is cold") true (src = Persist.Cold);
  ignore shallow;
  let deeper, src = stored ~store:st ~depth in
  check_bool (name ^ ": live full-depth leg is cold") true (src = Persist.Cold);
  Alcotest.(check string) (name ^ ": live deeper = storeless") base
    (fingerprint deeper);
  Alcotest.(check int) (name ^ ": live deeper runs = storeless")
    plain_run.Live_explore.stats.Explore_stats.runs
    deeper.Live_explore.stats.Explore_stats.runs;
  Alcotest.(check int) (name ^ ": live deeper steps = storeless")
    plain_run.Live_explore.stats.Explore_stats.steps_executed
    deeper.Live_explore.stats.Explore_stats.steps_executed;
  let warm, src = stored ~store:st ~depth in
  check_bool (name ^ ": live re-query is warm") true (src = Persist.Warm);
  Alcotest.(check string) (name ^ ": live warm = storeless") base
    (fingerprint warm);
  Alcotest.(check int) (name ^ ": live warm runs = storeless")
    plain_run.Live_explore.stats.Explore_stats.runs
    warm.Live_explore.stats.Explore_stats.runs

let test_store_live_differential () =
  List.iter diff_store_live_case (Registry.all ())

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "store.codec",
      [
        Alcotest.test_case "round-trip" `Quick test_round_trip;
        Alcotest.test_case "record string round-trip" `Quick
          test_record_string;
        Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
        Alcotest.test_case "flipped byte" `Quick test_crc_flip;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "engine version mismatch" `Quick
          test_engine_mismatch;
        Alcotest.test_case "qid binds flags and registry" `Quick
          test_qid_binds_flags;
        Alcotest.test_case "supersede" `Quick test_supersede;
        Alcotest.test_case "oversized record refused" `Quick
          test_oversized_record_refused;
      ] );
    ( "store.append",
      [
        Alcotest.test_case "commit appends in place" `Quick
          test_append_in_place;
        Alcotest.test_case "torn append" `Quick test_torn_append;
        Alcotest.test_case "foreign writer" `Quick test_foreign_writer;
      ]
      @ qcheck [ prop_append_equals_rewrite ] );
    ( "store.persist",
      [
        Alcotest.test_case "cold, warm, deeper cold" `Quick
          test_persist_cold_warm_deeper;
        Alcotest.test_case "witness warm-served after replay" `Quick
          test_persist_witness_warm;
        Alcotest.test_case "corrupt store falls back cold" `Quick
          test_persist_corrupt_fallback;
        Alcotest.test_case "live cold, warm, deeper cold" `Quick
          test_persist_live_cold_warm_deeper;
        Alcotest.test_case "lasso re-validated warm" `Quick
          test_persist_lasso_warm;
      ] );
    ( "store.differential",
      [
        Alcotest.test_case "registry sweep, safety legs" `Slow
          test_store_differential;
        Alcotest.test_case "registry sweep, liveness legs" `Slow
          test_store_live_differential;
      ] );
  ]
