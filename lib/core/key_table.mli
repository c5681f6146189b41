(** The transposition table of both explorers: a hash table keyed by
    their flat {!Slx_sim.Runner.Cursor.compact_key} arrays.

    Keys are hashed by an explicit fold over every element and
    compared element-wise, so the table is the only per-key store.
    (The polymorphic hash would sample only the first ~10 elements of
    a key.)  The table is unbounded: a hit credits exactly the subtree
    it skips, so a table can only save work, and whether one is built
    is the engine's decision, not a setting.

    Not thread-safe; each exploration owns its own table. *)

include Hashtbl.S with type key = int array
