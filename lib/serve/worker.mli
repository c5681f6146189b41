(** The verification worker: the child-process half of {!Serve}.

    A worker is [slx]'s own binary re-executed with the hidden
    [worker] subcommand, wired to the coordinator by two pipes.  The
    protocol is JSON-lines on stdin/stdout:

    - stdin, one line per task: [{"spec": {...}}]
      ({!Queries.spec_of_json}), run as a {!Queries.Full} task;
    - stdout, zero or more progress heartbeats (the engines'
      JSON-lines reporter, which has no ["result"] member) followed by
      exactly one result line [{"result": {...}, "record": "..."}]
      ({!Queries.work}): the client-visible result, and the answer's
      store record in the store's own codec
      ({!Slx_store.Store.record_to_string}) as a JSON string.  A
      failed task has no ["record"].  A line that is not JSON, or has
      no valid ["spec"], is answered with an error result.

    A worker runs one task at a time, so its result line needs no
    name for the task: the coordinator reads it as the result of the
    one query it gave that worker.

    Workers never open the store — the result line carries the
    record back, so the coordinator stays the store's only writer.  A
    worker is never asked to abandon a task: the coordinator kills a
    worker whose query timed out, and every worker at shutdown.  EOF on stdin also
    ends the loop. *)

val main : unit -> int
(** Run the task loop until stdin closes.  Exit code 0. *)
