(** Live progress heartbeats for long explorations.

    A reporter is handed to an engine (via {!Obs.create}) and ticked
    from the hot loop; every [interval] seconds it snapshots the
    engine's counters and prints one line — human-readable to stderr
    by default, or JSON-lines with [~json:true] — so a deep search
    shows heartbeats instead of silence.

    Cost discipline: {!tick} on a disabled reporter is one branch; on
    an enabled one it decrements a countdown and only reads the clock
    every [64] calls, and only builds a {!sample} (the single
    allocation) when a beat is actually due.  Engines therefore tick
    unconditionally at every node. *)

type sample = {
  s_nodes : int;  (** Decision-tree nodes visited so far. *)
  s_runs : int;  (** Maximal runs accounted so far. *)
  s_steps : int;  (** Runtime ticks executed so far. *)
  s_cache_entries : int;  (** Transposition-cache entries. *)
  s_cycles : int;  (** Candidate cycles examined (fair-cycle search). *)
}

val zero : sample
(** The all-zero sample: an engine's placeholder until its counters
    are wired. *)

type t

val off : t
(** The disabled reporter; {!tick} is a no-op costing one branch. *)

val create : ?interval:float -> ?json:bool -> ?out:out_channel -> unit -> t
(** A live reporter emitting every [interval] seconds (default [1.];
    [0.] emits on every countdown expiry) to [out] (default [stderr]),
    as human one-liners or, with [~json:true], as JSON-lines. *)

val enabled : t -> bool

val tick : t -> (unit -> sample) -> unit
(** Tick from the hot loop; [sample] is called only when a beat is
    due. *)

val beats : t -> int
(** Heartbeats emitted so far (0 for {!off}). *)
