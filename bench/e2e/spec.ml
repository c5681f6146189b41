(* One verification query, in the vocabulary the CLI, the library and
   the service share, together with the answer the paper predicts. *)

open Slx_consensus
open Slx_liveness

type kind = Explore | Live

type t = {
  kind : kind;
  impl : string;  (** cas | register | selfish *)
  property : string;  (** Live only: obstruction | 1,2. *)
  n : int;
  depth : int;
  crashes : int;
  rounds : int option;
      (** Register instances: [Some r] builds lean [max_rounds = r]
          instances; [None] builds what the CLI builds. *)
  max_period : int option;  (** Live only; [None] = engine default. *)
  pump : int option;
}

let explore ?rounds impl ~n ~depth ~crashes =
  {
    kind = Explore;
    impl;
    property = "";
    n;
    depth;
    crashes;
    rounds;
    max_period = None;
    pump = None;
  }

let live ?max_period ?pump impl property ~n ~depth ~crashes =
  {
    kind = Live;
    impl;
    property;
    n;
    depth;
    crashes;
    rounds = None;
    max_period;
    pump;
  }

let to_string s =
  let opt name = function
    | None -> ""
    | Some v -> Printf.sprintf " %s=%d" name v
  in
  Printf.sprintf "%s %s%s n=%d c=%d d=%d%s%s%s"
    (match s.kind with Explore -> "explore" | Live -> "live")
    s.impl
    (if s.property = "" then "" else " " ^ s.property)
    s.n s.crashes s.depth (opt "rounds" s.rounds) (opt "max_period" s.max_period)
    (opt "pump" s.pump)

(* The known-answer table.  Safety: CAS and register consensus are
   safe, the selfish foil is not.  Liveness (Theorem 5.2 and the CAS
   foil): register consensus is obstruction-free once every solo window
   exists (c >= n-1) but admits a fair (1,2) lasso; CAS is clean at
   every point.  Workloads only draw queries this table answers. *)
let expected s =
  match (s.kind, s.impl, s.property) with
  | Explore, "selfish", _ -> "counterexample"
  | Explore, ("cas" | "register"), _ -> "ok"
  | Live, "cas", _ -> "no_fair_cycle"
  | Live, "register", "obstruction" when s.crashes >= s.n - 1 -> "no_fair_cycle"
  | Live, "register", "1,2" -> "lasso"
  | _ -> invalid_arg ("Spec.expected: no known answer for " ^ to_string s)

(* ------------------------------------------------------------------ *)
(* The three ways to ask.                                              *)

let cli_args s =
  let i = string_of_int in
  let opt flag = function None -> [] | Some v -> [ flag; i v ] in
  match s.kind with
  | Explore ->
      if s.n <> 2 || s.rounds <> None then
        invalid_arg ("Spec.cli_args: not a CLI query: " ^ to_string s);
      [ "explore"; "--impl"; s.impl; "--depth"; i s.depth; "--crashes";
        i s.crashes; "--json" ]
  | Live ->
      [ "live-explore"; "--impl"; s.impl; "--property"; s.property; "--procs";
        i s.n; "--depth"; i s.depth; "--crashes"; i s.crashes ]
      @ opt "--max-period" s.max_period
      @ opt "--pump" s.pump @ [ "--json" ]

let serve_json s =
  let opt name = function
    | None -> ""
    | Some v -> Printf.sprintf ", %S: %d" name v
  in
  Printf.sprintf
    "{\"kind\": %S, \"impl\": %S, \"property\": %S, \"n\": %d, \"depth\": %d, \
     \"crashes\": %d%s%s}"
    (match s.kind with Explore -> "explore" | Live -> "live")
    s.impl s.property s.n s.depth s.crashes (opt "max_period" s.max_period)
    (opt "pump" s.pump)

type factory =
  unit -> (Consensus_type.invocation, Consensus_type.response) Slx_sim.Runner.factory

(* The instance the CLI (or, with [rounds], the lean shape) builds. *)
let factory s : factory =
  match (s.impl, s.rounds, s.kind) with
  | "cas", _, _ -> fun () -> Cas_consensus.factory ()
  | "selfish", _, _ -> fun () -> Selfish_consensus.factory ()
  | "register", Some r, _ -> fun () -> Register_consensus.factory ~max_rounds:r ()
  | "register", None, Explore -> fun () -> Register_consensus.factory ()
  | "register", None, Live ->
      fun () -> Register_consensus.factory ~max_rounds:(max 8 s.depth) ()
  | other, _, _ -> invalid_arg ("Spec.factory: " ^ other)

let point s =
  match s.property with
  | "obstruction" -> Freedom.obstruction_freedom
  | p -> Scanf.sscanf p "%d,%d" (fun l k -> Freedom.make ~l ~k)

let safety_invoke v =
  Slx_core.Explore.workload_invoke
    (Slx_sim.Driver.n_times 1 (fun p _ -> Consensus_type.Propose (p - 1)))
    v

let live_invoke v =
  Slx_core.Explore.workload_invoke
    (Slx_sim.Driver.forever (fun p -> Consensus_type.Propose (p - 1)))
    v

let check r = Consensus_safety.check r.Slx_sim.Run_report.history
