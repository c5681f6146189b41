(** The on-disk verdict/fingerprint store: a CRC-framed, append-only
    record log, committed by appending the new frames and compacted
    by atomic rename.

    One file holds every verdict a machine has computed: for each
    {e query} (an implementation + workload + property + flags,
    digested into a [qid] by {!Persist.query_key}) and depth, the
    outcome and the witness or lasso scripts in coded form
    ({!Slx_core.Explore.code_of_decision}).  A record answers exactly
    its own [(qid, depth)]: a query at any other depth runs cold.

    {b Format.}  The file starts with the magic ["SLXSTOR1"], followed
    by frames [[u32 length][u32 crc32][payload]].  The first frame is
    the {e header} binding the format version and the engine version;
    any mismatch (a file written under an older [format_version]
    included) — or a bad magic — invalidates the whole file (it is
    read as empty and overwritten on the next commit), so a stale
    cache can never forge a verdict across an engine change.  A frame
    whose CRC does not match its payload is dropped (and counted in
    {!health}) without giving up on later frames; a truncated tail
    frame drops the remainder.  Within the log, a later record for the
    same [(qid, depth)] supersedes an earlier one, and the last
    counters frame holds the counters.  A full image is the header,
    the counters and each live record once; a commit appends the
    records added since the last commit and a counters frame, so
    superseded frames stay in the file until the next full image
    replaces it (at most twice the last full image's size).

    {b Concurrency.}  A full image is written to a temp file and
    published by [rename(2)].  An append is one [write] with
    [O_APPEND] to a file whose inode and size the handle itself last
    wrote or read whole, so it only ever follows a header that
    handle wrote or validated: a file another writer renamed in (under
    another engine version, say) is rewritten, never extended.  A
    reader racing an append, or a file torn by a crash mid-append, may
    see a truncated tail frame: it counts one dropped frame and misses
    that record (and the commit's counters), never reads a wrong one;
    the handle that read it rewrites on its next commit.  A store is
    single-writer by convention (the CLI holds it for a run; the serve
    daemon's coordinator is the only writer, its workers never open
    the store).  No in-file locking. *)

type verdict =
  | V_ok of int  (** Safety: every maximal run passed; the run count. *)
  | V_counterexample of int list
      (** Safety: the lex-least failing run's coded decision script.
          Never trusted blindly: {!Persist} replays it and re-runs the
          check before serving it as a hit. *)
  | V_no_fair_cycle
  | V_lasso of { stem : int list; cycle : int list }
      (** Liveness: the certificate's coded stem and cycle scripts.
          Re-validated (rebuilt, pumped) before being served. *)

type record = {
  r_qid : int;  (** {!Persist.query_key} digest — binds impl, workload,
                    property, flags and registry digest. *)
  r_depth : int;
  r_max_period : int;  (** Liveness only; 0 for safety records. *)
  r_pump_ticks : int;  (** Liveness only; 0 for safety records. *)
  r_runs : int;  (** [stats.runs] of the producing run. *)
  r_steps : int;  (** [stats.steps_executed] of the producing run — the
                      work a warm hit saves, reported by [slx stats]. *)
  r_verdict : verdict;
}

val record_to_string : record -> string
(** A record in the store's own frame codec: the payload of one record
    frame (two lines, no framing).  Workers send a computed record to
    the serve coordinator in this form. *)

val record_of_string : string -> (record, string) result
(** The inverse of {!record_to_string}: [Error] on a payload that is
    not exactly one well-formed record (truncated, non-numeric, or
    with trailing fields). *)

type counters = {
  c_queries : int;  (** Store-backed queries answered. *)
  c_warm_hits : int;  (** Served from an exact [(qid, depth)] record. *)
  c_colds : int;  (** Explored from scratch. *)
  c_rejected : int;
      (** Stored witnesses that failed re-validation (fell back to a
          cold run and were overwritten). *)
  c_refused : int;
      (** Records {!commit} left out because their frame would exceed
          the bound a reader accepts (the answer was still returned,
          just not stored). *)
}

type health = {
  h_created : bool;  (** No file existed (or it was empty). *)
  h_invalidated : string option;
      (** The file was discarded wholesale: bad magic, bad header, or
          an engine/format version mismatch — the reason, verbatim. *)
  h_records_dropped : int;
      (** Frames dropped for CRC mismatch or a truncated tail. *)
}

val format_version : int
(** The codec version in the header frame; bumped whenever the record
    or counter lines change shape. *)

val engine_version : string
(** Identifies the verdict-relevant engine semantics (bumped on any
    change to menus, reductions or fingerprints)
    plus the OCaml version (polymorphic-hash digests are not
    guaranteed stable across compiler versions). *)

val digest_string : string -> int
(** 64-bit FNV-1a, masked non-negative — the [qid] digest helper. *)

type t

val open_ : ?engine_version:string -> string -> t
(** Read (or initialize) the store at a path.  After the magic and
    header check, one pass over the frames, newest first: a slot's
    first record is its last write and the first counters frame that
    parses is the one in force.  Superseded frames are parsed only to
    count damage: a malformed frame anywhere in the log counts in
    [h_records_dropped] (and makes the next {!commit} a rewrite).
    Never raises on bad content: corruption and mismatches degrade to
    an empty (or partial) store, reported in {!health}.
    [engine_version] defaults to {!engine_version}; tests override it
    to forge mismatches.
    @raise Sys_error only on unreadable paths (permissions). *)

val path : t -> string

val health : t -> health

val records : t -> record list
(** All live records, oldest first (superseded duplicates removed). *)

val find : t -> qid:int -> depth:int -> record option
(** The exact record for this query at this depth, if any. *)

val add : t -> record -> unit
(** Insert (in memory), superseding any record with the same
    [(qid, depth)].  Visible on disk after {!commit}. *)

val bump : t -> [ `Query | `Warm | `Cold | `Rejected ] -> unit
(** Count a store interaction into {!counters}. *)

val counters : t -> counters

val encode :
  max_frame:int ->
  engine_version:string ->
  counters ->
  record list ->
  string * counters * record list
(** [encode ~max_frame ~engine_version counters records] is the file
    image of a log holding [records] (oldest first), with the counters
    it wrote and the records it kept.  A record whose payload is longer
    than [max_frame] is left out and counted in [c_refused]: a reader
    takes such a frame for damage and stops there, losing every later
    record too.  {!commit} passes the bound {!open_} reads with
    (64 MiB). *)

val commit : t -> unit
(** Publish the in-memory state.  When the handle knows the file's
    image (it wrote it, or read it whole with no frame dropped), the
    path still names that inode at that size, no new record exceeds
    the frame bound and the file stays within twice its last full
    image, append the frames of the records added since the last
    commit and one counters frame.  Otherwise {!encode} the whole log
    to [path ^ ".tmp.<pid>"] and atomically rename it over [path]; a
    record {!encode} refuses is dropped from the store. *)
