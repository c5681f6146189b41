(** The verification worker: the child-process half of {!Serve}.

    A worker is [slx]'s own binary re-executed with the hidden
    [worker] subcommand, wired to the coordinator by two pipes.  The
    protocol is JSON-lines on stdin/stdout:

    - stdin, one line per task: [{"lease": N, "spec": {...}}]
      ({!Queries.spec_of_json}), run as a {!Queries.Full} task;
    - stdout, zero or more progress heartbeats (the engines'
      JSON-lines reporter, no ["lease"] member) followed by exactly
      one result line [{"lease": N, "result": {...}, "record": "..."}]
      ({!Queries.work}): the client-visible result, and the answer's
      store record in the store's own codec
      ({!Slx_store.Store.record_to_string}) as a JSON string.  A
      failed task has no ["record"].

    Workers never open the store — the result line carries the
    record back, so the coordinator stays the store's only writer.  A
    task is never interrupted: the coordinator kills a worker whose
    query timed out.  EOF on stdin is shutdown. *)

val main : unit -> int
(** Run the task loop until stdin closes.  Exit code 0. *)
