(** The three rule families over one parsed implementation source.

    All analyses are intraprocedural and purely syntactic over the
    {!Parsetree} — no typing, no cmt files — so they run on any source
    the compiler can parse, at parse cost.  They are {e conservative
    with documented blind spots} (doc/model.md section 12), the static
    complement of the exact-but-explored-paths-only runtime shadow:

    - {b escape}: raw mutable state (refs, arrays, hash tables,
      atomics) must not be shared across steps except through
      [Runtime.register_object]-registered cells.  Module-level
      mutable state and closure-captured unregistered state in
      runtime-interacting code are flagged; function-local scratch and
      scheduler-side (never-touching-the-runtime) closure state are
      allowed.
    - {b determinism}: calls whose result can differ between a run and
      its replay are banned ([Random] globals — the explicitly-seeded
      [Random.State] is allowed — [Hashtbl.hash]*, wall clocks, [Gc]
      introspection, [Domain] spawns, physical equality).
    - {b footprint}: inside an [atomic_access ~obj:D] callback, every
      handle reaching a [touch] (directly, through per-file touch
      helpers, or via a nested atomic declaration) must be rooted in
      the identifiers of [D]; writes must be declared as writes; a
      declared handle never touched in a closed body is flagged.
      [Runtime.atomic] (opaque) discharges the family. *)

val check : file:string -> source:string -> Parsetree.structure -> Finding.t list
(** All findings of the three families for one file, sorted.  [file]
    is used verbatim in the findings; [source] provides snippets. *)
