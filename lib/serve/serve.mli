(** [slx serve]: a multi-process verification service over one verdict
    store.

    One coordinator process owns an HTTP/1.1 endpoint (plain [Unix]
    sockets, JSON bodies — no dependencies beyond the stdlib), the
    persistent verdict store ({!Slx_store.Store}, single writer), and
    a pool of worker processes ({!Worker}, the [slx] binary
    re-executed), each running one query at a time.

    {b Endpoints.}
    - [POST /query] — body {!Queries.spec_of_json} plus optional
      ["timeout"] (seconds, a positive number: anything else is a
      [400]) and ["wait"] (a boolean: anything else is a [400]).
      Without [wait]:
      [202] with [{"id", "deduped"}].  With [wait]: a close-delimited
      [application/x-ndjson] stream of the query's status line, once
      per progress heartbeat and once more when the query ends.
    - [GET /status/ID] — the same status line: [id], [state]
      ([running]/[done]/[failed]/[timeout]), [source], [spec] and
      [elapsed_s] (fixed once the query has ended), plus the latest
      [heartbeat] while running, the [result] when done or the
      [error] when failed.  The coordinator keeps every running query
      and the latest {!max_settled} ended ones; an older id answers
      [404].
    - [GET /stats] — service counters (dedup hits, re-leases,
      timeouts, worker states), each worker's peak resident set
      ([worker_hwm_kb], read from [/proc/<pid>/status] when asked;
      [null] where that is unavailable) and the store's
      counters/health.
    - [POST /shutdown] — drain and exit.

    {b Answer planning} is {!Slx_store.Persist}'s policy: a warm
    store hit ({!Slx_store.Persist.warm}) answers immediately
    (witnesses re-validated).  Any other query — a record under other
    liveness budgets included — is its own task: the query's spec goes
    to one idle worker, and that worker explores the whole tree, so the
    answer is byte-identical to a store-less [slx explore] /
    [slx live-explore].
    The worker builds the answer's store record and sends it beside
    the result; the coordinator saves it ({!Slx_store.Persist.save})
    if it is the query's own, and reads nothing else from a result but
    its ["outcome"] (and an error's ["message"]).  [--workers]
    therefore parallelises across queries, not within one.  Served
    sources are [warm] and [full].  Identical in-flight queries dedupe
    onto one computation.

    {b Workers.}  A worker is idle or running one query that is still
    running; there is no third state.  A worker process ends one way:
    its two pipes are closed, it is sent SIGKILL and it is reaped,
    which returns at once for a busy, stopped or hung worker as for a
    dead one.  That happens when its pipe reaches EOF (it crashed or
    was killed from outside: its query goes back to the front of the
    queue, [re_leases] in [/stats], and a fresh process takes its
    slot), when its query passes its deadline, and at shutdown.

    {b Deadlines.}  One clock serves query timeouts and the read
    deadline below.  Before each wait for input, every query past its
    deadline settles as [timeout] (its waiters are told, and its
    worker, if it has one, is replaced at once, so the next pending
    query starts on the fresh process), and every reader past its read
    deadline is closed.  The wait then lasts until the next deadline,
    and at most 0.25 s, so that a SIGINT or SIGTERM that lands just
    before it is noticed that soon.  A timeout therefore settles on
    time, not at the next poll.

    {b Shutdown.}  [POST /shutdown], SIGINT and SIGTERM end the loop.
    Every worker is then stopped, idle or busy: nothing would read a
    busy worker's result.  The store is committed and the process
    exits; a running query's streamed waiters see their connection
    close.

    {b Input bounds.}  A request longer than {!max_request} bytes, or
    one whose header block has not ended by then, answers [400] and
    its connection is dropped.  So is a connection whose request is
    still unfinished 10 s after it was accepted.  At most 768
    connections (unfinished requests plus streamed waiters) are open
    at once, which keeps every descriptor under [select]'s
    FD_SETSIZE: a new connection past that closes the oldest
    unfinished one, or itself when all of them are waiters. *)

val max_request : int
(** The longest request, header block and body, a client may send:
    64 KiB, against a spec body under 1 KB. *)

val max_settled : int
(** How many ended queries [/status] still answers: 1024, the oldest
    forgotten first.  Running queries are always kept. *)

val main :
  ?host:string ->
  port:int ->
  workers:int ->
  store:string ->
  unit ->
  int
(** Serve until [POST /shutdown] (or SIGINT/SIGTERM) with [workers]
    worker processes.  [host] defaults to ["127.0.0.1"].  Returns the
    process exit code; the store is committed on every completed query
    and again on shutdown. *)
