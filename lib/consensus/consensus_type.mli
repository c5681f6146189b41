(** The consensus object type.

    “A consensus shared object is used by processes to agree on some
    value from a set of proposed values.  Each process proposes its own
    value [v] by invoking operation [propose(v)] on a consensus object
    and receives as a response some value [v'].” (Section 4.1.)

    The sequential specification decides the first proposed value and
    returns it to every later proposer.  Every response is a good
    response ([GTp = Res]): deciding is progress. *)

type invocation = Propose of int

type response = Decided of int

include
  Slx_history.Object_type.S
    with type state = int option
     and type invocation := invocation
     and type response := response

module Self :
  Slx_history.Object_type.S
    with type state = int option
     and type invocation = invocation
     and type response = response
(** The type as a module, for the checker functors
    ({!Slx_safety.Linearizability.Make} etc.). *)

val tp : (int option, invocation, response) Slx_history.Object_type.t
(** The type packed as a first-class value. *)

val pp_history :
  Format.formatter -> (invocation, response) Slx_history.History.t -> unit
(** Histories printed in the paper's notation:
    ["propose(0)_1 . propose(1)_2 . 0_1"]. *)

(** {1 Workloads}: process [p] proposes [p - 1]. *)

val propose_once : (invocation, response) Slx_sim.Driver.workload
(** Once: the safety workload. *)

val propose_forever : (invocation, response) Slx_sim.Driver.workload
(** Whenever idle: the liveness workload. *)
