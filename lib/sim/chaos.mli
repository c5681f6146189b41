(** A seeded chaos driver: random scheduling, random invocation timing,
    random crash injection — the generic safety fuzzer.

    Where {!Driver.random} keeps every process busy and nobody crashes,
    the chaos driver also stalls processes for random stretches and
    crashes them now and then, producing the ugly
    schedules real systems see.  Safety properties must survive all of
    them; the test suites run every implementation in the repository
    under chaos.

    (Liveness verdicts on chaos runs are usually meaningless — the runs
    are rarely bounded-fair — which is itself exercised by the
    suites.) *)

open Slx_history

val driver :
  seed:int ->
  workload:('inv, 'res) Driver.workload ->
  unit ->
  ('inv, 'res) Driver.t
(** [driver ~seed ~workload ()] behaves like {!Driver.random} but, at
    each tick: with probability 0.01 crashes a random non-crashed
    process (at most [n - 1] crashes total, so someone always
    survives); with probability 0.2 re-rolls the candidate, biasing
    some processes into long stalls.  Reproducible from [seed]. *)

val survivor : ('inv, 'res) Run_report.t -> Proc.t
(** The lowest-numbered non-crashed process of a chaos run (always
    exists by the crash cap). *)
