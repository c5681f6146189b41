(** The [slx query] side of the wire: a minimal HTTP/1.1 client for
    {!Serve}, built on the same plain [Unix] sockets.

    Every call opens one connection, sends one request, and reads to
    close (the server sets [Connection: close] on every response), so
    there is no connection state to manage.  Streaming responses
    ([POST /query] with [wait]) are relayed line-by-line to [out] as
    they arrive — heartbeats and the final result object — which is
    exactly what a terminal or a pipe into [jq] wants.  A response
    whose status is not [2xx] is relayed too, and the call returns
    [Error].

    The socket helpers both ends share ({!write_all}, {!close_quiet},
    {!body_start}) live here, and {!Serve} calls them. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, however many [write]s it takes.  Raises
    [Unix.Unix_error] as [write] does. *)

val close_quiet : Unix.file_descr -> unit
(** Close, ignoring any [Unix.Unix_error]. *)

val body_start : string -> int option
(** The offset just past the first ["\r\n\r\n"], where an HTTP
    message's body starts; [None] while the header block is
    unfinished. *)

val post_query :
  ?host:string ->
  port:int ->
  wait:bool ->
  ?timeout:float ->
  (string * Slx_obs.Json.t) list ->
  out:out_channel ->
  (unit, string) result
(** Submit a query whose body holds the given spec members (see
    {!Queries.spec_of_json}).  With [wait:false] prints the [202]
    ticket ([{"id", "deduped"}]); with [wait:true] streams heartbeats
    until the result line.  [timeout] is forwarded to the server as
    the query's deadline. *)

val get :
  ?host:string -> port:int -> string -> out:out_channel ->
  (unit, string) result
(** [GET] an arbitrary path ([/status/ID], [/stats]) and print the
    response body. *)

val shutdown : ?host:string -> port:int -> unit -> (unit, string) result
(** [POST /shutdown] — asks the server to drain and exit. *)
