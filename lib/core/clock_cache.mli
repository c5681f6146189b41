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

    Keys are hashed polymorphically, so their shape is the dominant
    per-lookup cost: the explorers key this cache by hash-consed
    {!Intern} ids (single ints), O(1) per probe regardless of history
    depth.

    Not thread-safe; each exploration owns its own cache. *)

type ('k, 'v) t

val create :
  ?capacity:int -> ?sink:Slx_obs.Telemetry.sink -> unit -> ('k, 'v) t
(** [create ~capacity ()] holds at most [capacity] entries (unbounded
    without it).  [sink] (default {!Slx_obs.Telemetry.null}) receives
    a [Cache_evict] event per eviction.
    @raise Invalid_argument if [capacity < 1]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Lookup; marks the entry as recently referenced. *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or update, evicting one victim first if at capacity. *)

val length : ('k, 'v) t -> int
(** Current number of entries. *)

val evictions : ('k, 'v) t -> int
(** Total entries evicted so far. *)

val capacity : ('k, 'v) t -> int option
(** The configured bound ([None] when unbounded). *)
