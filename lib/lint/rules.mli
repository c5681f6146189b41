(** The two rule families over one parsed implementation source.

    All analyses are intraprocedural and purely syntactic over the
    {!Parsetree} — no typing, no cmt files — so they run on any source
    the compiler can parse, at parse cost.  They are {e conservative
    with documented blind spots} (doc/model.md section 11): they check
    that what a step does is visible to the runtime, so that a step's
    observed footprint ([Runtime.touch]) is complete.

    - {b escape}: raw mutable state (refs, arrays, hash tables,
      atomics) must not be shared across steps except through
      [Runtime.register_object]-registered cells.  Module-level
      mutable state and closure-captured unregistered state in
      runtime-interacting code are flagged, as is a mutation of
      non-local state outside any [Runtime.atomic] step body;
      function-local scratch and scheduler-side
      (never-touching-the-runtime) closure state are allowed.
    - {b determinism}: calls whose result can differ between a run and
      its replay are banned ([Random] globals — the explicitly-seeded
      [Random.State] is allowed — [Hashtbl.hash]*, wall clocks, [Gc]
      introspection, [Domain] spawns, physical equality). *)

val check : file:string -> source:string -> Parsetree.structure -> Finding.t list
(** All findings of the two families for one file, sorted.  [file]
    is used verbatim in the findings; [source] provides snippets. *)
