(** The audit registry: one {!Audit.case} per registered
    implementation, so [slx audit] (and the test suite) sweeps every
    object and TM in the repository.

    Groups: ["base"] (direct exercisers for each instrumented base
    object), ["consensus"] (the consensus implementations and the
    one-shot objects), ["objects"] (locks, stacks, queues, snapshot),
    ["universal"] (the universal construction over both consensus
    building blocks), ["tm"] (the transactional memories), and —
    outside {!all} — ["fixture"] (the deliberately mis-declared
    implementations of {!Fixtures}).

    Waivers are declared here, next to the case, with a comment
    explaining each: lazily-allocating implementations take opaque
    lookup steps ([waive_opaque]); CAS under a stale expected value
    may never physically write at audit depths
    ([waive_never_wrote]). *)

val all : unit -> Audit.case list
(** Every registered implementation (fixtures excluded). *)

val consensus_cases : unit -> Audit.case list

val fixture_cases : unit -> Audit.case list
(** The mis-declared fixtures, each expected dirty (or linty) in its
    own specific way — see {!Fixtures}. *)

val select : ?group:string -> ?name:string -> Audit.case list -> Audit.case list
(** Filter by exact group and/or case name. *)
