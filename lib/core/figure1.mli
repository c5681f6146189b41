(** Experimental regeneration of Figure 1 (and its Section 5.3
    sibling): classifying every (l,k)-freedom point as excluding or not
    excluding a safety property.

    The classification is run, not hard-coded: for each object we
    field
    - {e adversary runs}: bounded-fair, safety-respecting runs produced
      by the paper's adversaries against our best implementation — a
      point is {b Excluded} (black) when some adversary run violates
      it;
    - {e positive runs}: bounded-fair runs of the surviving
      implementation under solo, crashed-subset and random schedules —
      a point is {b Not_excluded} (white) when no run (adversary or
      positive) violates it.

    A point violated only by a positive run is {b Unknown} — it means
    our implementation is too weak for that point and our adversaries
    too weak to rule it out; the paper's theorems predict no Unknowns,
    and the test suite asserts none appear.

    Each sampled grid ({!consensus}, {!tm}, {!s_prime}, {!mutex}) is
    one row of data handed to one internal builder: the implementation
    factory, the safety check and [good]; the adversary runs, each an
    active set, a driver and a step budget (everyone outside the set
    crashes at time 0), or a report already made; and the positive
    workload with the active-set sizes it is swept over, each with
    every seed at half the budget.  The builder fields every run whose
    active set fits in [n] processes, keeps the adversary runs that
    respect the safety check, and classifies.

    Expected shapes (the tests and EXPERIMENTS.md check these):
    - {!consensus} (Figure 1a): white exactly at (1,1) — Theorem 5.2;
    - {!tm} (Figure 1b): white exactly at the bottom row l = 1 —
      Theorem 5.3;
    - {!s_prime} (Section 5.3): white at (1,1) and (1,2); minimal black
      points (2,2) {e and} (1,3) — two incomparable minimal excluders,
      so no weakest excluding (l,k)-freedom exists. *)

open Slx_liveness

type color = Not_excluded | Excluded | Unknown

type grid = {
  name : string;
  n : int;
  cells : (Freedom.t * color) list;
  adversary_runs : int;  (** How many adversary runs were fielded. *)
  positive_runs : int;   (** How many positive runs were fielded. *)
}

val consensus : ?n:int -> ?max_steps:int -> ?seeds:int list -> unit -> grid
(** Figure 1a: agreement-and-validity, register consensus, lockstep
    adversary.  Defaults: [n = 3], [max_steps = 1200], three seeds. *)

val tm : ?n:int -> ?max_steps:int -> ?seeds:int list -> unit -> grid
(** Figure 1b: opacity, the AGP TM, the Section 4.1 adversary. *)

val s_prime : ?n:int -> ?max_steps:int -> ?seeds:int list -> unit -> grid
(** The Section 5.3 grid: [S'], the [I(1,2)] TM, both TM adversaries. *)

val mutex : ?n:int -> ?max_steps:int -> ?seeds:int list -> unit -> grid
(** The counterpoint grid: mutual exclusion with the Bakery lock.  The
    starvation scheduler cannot produce a bounded-fair violation, and
    the fair runs satisfy every point — the whole grid is white:
    mutual exclusion has no safety-liveness trade-off at any
    (l,k)-freedom point, because its [Lmax] (starvation-freedom) is
    implementable. *)

val color_at : grid -> l:int -> k:int -> color option
(** The color of a grid point, if the point exists. *)

val strongest_not_excluded : grid -> Freedom.t list
(** Maximal white points; Theorems 5.2 / 5.3 predict a singleton for
    consensus and TM. *)

val weakest_excluded : grid -> Freedom.t list
(** Minimal black points; a singleton for consensus ((1,2)) and TM
    ((2,2)), and a {e pair} for [S'] ((2,2) and (1,3)). *)

val render : grid -> string
(** An ASCII rendering in the layout of Figure 1: rows are [l]
    (decreasing), columns [k]; [o] = white (does not exclude),
    [#] = black (excludes), [?] = unknown. *)

val to_json : grid -> string
(** One-line JSON object of the grid ([cells] as an array of
    [{"l": _, "k": _, "color": "not_excluded" | "excluded" |
    "unknown"}]), in the machine-readable style of the explore
    [--json] stats records; consumed by the E20 cross-validation
    bench and [slx figure1 --json]. *)
