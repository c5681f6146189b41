(** A hash table with an optional capacity bound, evicting by the
    clock (second-chance) policy — the transposition-cache store of
    {!Explore}.

    Lookups set a per-entry reference bit; when an insertion finds the
    cache full, a clock hand sweeps the entry ring, clearing reference
    bits, and evicts the first entry found unreferenced.  Recently hit
    entries thus survive one full sweep — a constant-overhead
    approximation of LRU, good enough to keep hot transpositions while
    bounding memory on long explorations.  Without a capacity the
    table is unbounded and behaves like a plain [Hashtbl] (no ring
    bookkeeping at all).

    Keys are the explorers' flat
    {!Slx_sim.Runner.Cursor.compact_key} arrays themselves, hashed by
    an explicit fold over every element and compared element-wise — so
    the table is the only per-key store, and a capacity bounds the
    memory the keys take.  (The polymorphic hash would sample only the
    first ~10 elements of a key.)

    Not thread-safe; each exploration owns its own cache. *)

type 'v t

val create :
  ?capacity:int -> ?sink:Slx_obs.Telemetry.sink -> unit -> 'v t
(** [create ~capacity ()] holds at most [capacity] entries (unbounded
    without it).  [sink] (default {!Slx_obs.Telemetry.null}) receives
    a [Cache_evict] event per eviction.
    @raise Invalid_argument if [capacity < 1]. *)

val find_opt : 'v t -> int array -> 'v option
(** Lookup; marks the entry as recently referenced. *)

val replace : 'v t -> int array -> 'v -> unit
(** Insert or update, evicting one victim first if at capacity. *)

val length : 'v t -> int
(** Current number of entries. *)

val evictions : 'v t -> int
(** Total entries evicted so far. *)

val capacity : 'v t -> int option
(** The configured bound ([None] when unbounded). *)
