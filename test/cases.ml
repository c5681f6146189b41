(* Every implementation of the repository with a small workload: the
   cases the differential suites (test_dpor, test_compact, test_store)
   sweep.  Groups: direct exercisers for each instrumented base object,
   the consensus implementations and the one-shot objects, the other
   shared objects, the universal construction over both consensus
   building blocks, and the transactional memories. *)

open Slx_history
open Slx_sim
module B = Slx_base_objects
module Explore = Slx_core.Explore

type ('inv, 'res) case_def = {
  c_name : string;
  c_n : int;
  c_factory : unit -> ('inv, 'res) Runner.factory;
  c_invoke : ('inv, 'res) Driver.view -> Proc.t -> 'inv option;
  c_pp_inv : 'inv -> string;  (* for witness scripts *)
  c_depth : int;
  c_max_crashes : int;
}

(* A case packs its invocation types away so heterogeneous cases can be
   swept uniformly. *)
type case = Case : ('inv, 'res) case_def -> case

let case ?(depth = 6) ?(max_crashes = 0) ~name ~n ~factory ~invoke ~pp_inv () =
  Case
    {
      c_name = name;
      c_n = n;
      c_factory = factory;
      c_invoke = invoke;
      c_pp_inv = pp_inv;
      c_depth = depth;
      c_max_crashes = max_crashes;
    }

(* ------------------------------------------------------------------ *)
(* Workload adapters.                                                  *)

let counting w = Explore.workload_invoke w

let asprintf pp v = Format.asprintf "%a" pp v

let pp_consensus = function
  | Slx_consensus.Consensus_type.Propose v -> "propose " ^ string_of_int v

let one_proposal =
  counting
    Slx_consensus.Consensus_type.propose_once

(* Capped protocol-legal TM workload: [Tm_workload.next_invocation]
   derives the next legal operation from the process's projection; the
   cap bounds total invocations so the trees stay finite. *)
let tm_invoke ~cap view p =
  if view.Driver.invocations p >= cap then None
  else Some (Slx_tm.Tm_workload.next_invocation view p)

(* ------------------------------------------------------------------ *)
(* Base-object exercisers: one tiny harness per primitive, so every
   instrumented base object is walked directly, not only through the
   algorithms that happen to use it. *)

type base_inv = Op of int
type base_res = Res of int

let pp_base (Op k) = "op " ^ string_of_int k

let base_invoke =
  counting (Driver.n_times 2 (fun p k -> Op ((2 * p) + k)))

let base_case ~name impl_of =
  case ~name ~n:2 ~depth:6
    ~factory:(fun () ~n -> impl_of ~n)
    ~invoke:base_invoke ~pp_inv:pp_base ()

let base_cases () =
  [
    base_case ~name:"base-register" (fun ~n:_ ->
        let r = B.Register.make 0 in
        fun ~proc:(_ : Proc.t) (Op k) ->
          if k mod 2 = 0 then begin
            B.Register.write r k;
            Res 0
          end
          else Res (B.Register.read r));
    base_case ~name:"base-cas" (fun ~n:_ ->
        let c = B.Cas.make 0 in
        fun ~proc:_ (Op k) ->
          if k mod 2 = 0 then
            Res (if B.Cas.compare_and_swap c ~expected:0 ~desired:k then 1 else 0)
          else Res (B.Cas.read c));
    base_case ~name:"base-test-and-set" (fun ~n:_ ->
        let t = B.Test_and_set.make () in
        fun ~proc:_ (Op k) ->
          if k mod 2 = 0 then Res (if B.Test_and_set.test_and_set t then 1 else 0)
          else begin
            B.Test_and_set.reset t;
            Res 0
          end);
    base_case ~name:"base-fetch-and-add" (fun ~n:_ ->
        let c = B.Fetch_and_add.make 0 in
        fun ~proc:_ (Op k) -> Res (B.Fetch_and_add.fetch_and_add c k));
    base_case ~name:"base-queue" (fun ~n:_ ->
        let q = B.Queue.make [] in
        fun ~proc:_ (Op k) ->
          if k mod 2 = 0 then begin
            B.Queue.enqueue q k;
            Res 0
          end
          else Res (match B.Queue.dequeue q with Some v -> v | None -> -1));
    base_case ~name:"base-snapshot" (fun ~n ->
        let s = B.Snapshot.make ~n 0 in
        fun ~proc (Op k) ->
          if k mod 2 = 0 then begin
            B.Snapshot.update s proc k;
            Res 0
          end
          else Res (Array.fold_left ( + ) 0 (B.Snapshot.scan s)));
  ]

(* ------------------------------------------------------------------ *)
(* Consensus implementations. *)

let consensus_cases () =
  let mk ~name ?(depth = 6) ?(max_crashes = 0) factory =
    case ~name ~n:2 ~depth ~max_crashes ~factory
      ~invoke:one_proposal ~pp_inv:pp_consensus ()
  in
  [
    mk ~name:"consensus-register" ~max_crashes:1 (fun () ->
        Slx_consensus.Register_consensus.factory ());
    mk ~name:"consensus-cas" (fun () -> Slx_consensus.Cas_consensus.factory ());
    mk ~name:"consensus-queue" (fun () ->
        Slx_consensus.Queue_consensus.factory ());
    mk ~name:"consensus-selfish" (fun () ->
        Slx_consensus.Selfish_consensus.factory ());
  ]

(* One-shot consensus objects, through a direct harness. *)
let one_shot_case ~name (module C : Slx_objects.One_shot_consensus.S) =
  case ~name ~n:2 ~depth:6
    ~factory:(fun () ~n ->
      let o = C.make ~n () in
      fun ~proc -> function
        | Slx_consensus.Consensus_type.Propose v ->
            Slx_consensus.Consensus_type.Decided (C.propose o ~proc v))
    ~invoke:one_proposal ~pp_inv:pp_consensus ()

(* ------------------------------------------------------------------ *)
(* Shared objects. *)

let lock_invoke =
  counting
    (Driver.n_times 2 (fun _ k ->
         if k mod 2 = 0 then Slx_objects.Mutex.Acquire
         else Slx_objects.Mutex.Release))

let lock_case ~name ?(depth = 6) ?(max_crashes = 0) factory =
  case ~name ~n:2 ~depth ~max_crashes ~factory
    ~invoke:lock_invoke
    ~pp_inv:(asprintf Slx_objects.Mutex.pp_invocation)
    ()

let stack_invoke =
  counting
    (Driver.n_times 2 (fun p k ->
         if k mod 2 = 0 then Slx_objects.Stack_type.Push ((10 * p) + k)
         else Slx_objects.Stack_type.Pop))

let queue_invoke =
  counting
    (Driver.n_times 2 (fun p k ->
         if k mod 2 = 0 then Slx_objects.Queue_type.Enqueue ((10 * p) + k)
         else Slx_objects.Queue_type.Dequeue))

let snapshot_factory ~n =
  let s = Slx_objects.Snapshot_alg.make ~n 0 in
  fun ~proc -> function
    | Slx_objects.Snapshot_type.Update (i, v) ->
        Slx_objects.Snapshot_alg.update s ~proc:i v;
        ignore proc;
        Slx_objects.Snapshot_type.Ok
    | Slx_objects.Snapshot_type.Scan ->
        Slx_objects.Snapshot_type.View
          (Array.to_list (Slx_objects.Snapshot_alg.scan s))

let object_cases () =
  let module St = Slx_objects.Stack_type in
  let module Qt = Slx_objects.Queue_type in
  let module Sn = Slx_objects.Snapshot_type in
  let pp_stack = function
    | St.Push v -> "push " ^ string_of_int v
    | St.Pop -> "pop"
  in
  let pp_queue = function
    | Qt.Enqueue v -> "enqueue " ^ string_of_int v
    | Qt.Dequeue -> "dequeue"
  in
  let pp_snapshot = function
    | Sn.Update (i, v) -> Printf.sprintf "update %d %d" i v
    | Sn.Scan -> "scan"
  in
  [
    lock_case ~name:"mutex-tas" ~max_crashes:1 (fun () ->
        Slx_objects.Mutex.tas_factory ());
    lock_case ~name:"mutex-bakery" (fun () -> Slx_objects.Bakery.factory ());
    lock_case ~name:"mutex-peterson" (fun () ->
        Slx_objects.Peterson.factory ());
    case ~name:"treiber-stack" ~n:2 ~depth:6
      ~factory:(fun () -> Slx_objects.Treiber_stack.factory ())
      ~invoke:stack_invoke ~pp_inv:pp_stack ();
    case ~name:"cas-queue" ~n:2 ~depth:6
      ~factory:(fun () -> Slx_objects.Cas_queue.factory ())
      ~invoke:queue_invoke ~pp_inv:pp_queue ();
    case ~name:"snapshot-alg" ~n:2 ~depth:6
      ~factory:(fun () -> snapshot_factory)
      ~invoke:
        (counting
           (Driver.n_times 2 (fun p k ->
                if k mod 2 = 0 then Sn.Update (p, (10 * p) + k) else Sn.Scan)))
      ~pp_inv:pp_snapshot ();
    one_shot_case ~name:"oneshot-cas" (module Slx_objects.One_shot_consensus.Cas);
    one_shot_case ~name:"oneshot-registers"
      (module Slx_objects.One_shot_consensus.Registers);
  ]

let universal_cases () =
  let stack_tp : _ Object_type.t = (module Slx_objects.Stack_type.Self) in
  let pp_stack = function
    | Slx_objects.Stack_type.Push v -> "push " ^ string_of_int v
    | Slx_objects.Stack_type.Pop -> "pop"
  in
  let invoke =
    counting
      (Driver.n_times 1 (fun p _ -> Slx_objects.Stack_type.Push (10 * p)))
  in
  let mk ~name consensus =
    case ~name ~n:2 ~depth:5
      ~factory:(fun () ->
        Slx_objects.Universal.factory ~tp:stack_tp ~consensus ~max_ops:8 ())
      ~invoke ~pp_inv:pp_stack ()
  in
  [ mk ~name:"universal-cas" `Cas; mk ~name:"universal-registers" `Registers ]

(* ------------------------------------------------------------------ *)
(* Transactional memories. *)

let tm_cases () =
  let pp = asprintf Slx_tm.Tm_type.pp_invocation in
  let mk ~name ?(depth = 6) factory =
    case ~name ~n:2 ~depth ~factory
      ~invoke:(tm_invoke ~cap:4) ~pp_inv:pp ()
  in
  [
    mk ~name:"tm-i12" (fun () -> Slx_tm.I12.factory ~vars:1);
    mk ~name:"tm-i12-reg" (fun () -> Slx_tm.I12_reg.factory ~vars:1);
    mk ~name:"tm-agp" (fun () -> Slx_tm.Agp_tm.factory ~vars:1);
    mk ~name:"tm-mutual-abort" (fun () ->
        Slx_tm.Mutual_abort_tm.factory ~vars:1);
    mk ~name:"tm-tl2" (fun () -> Slx_tm.Tl2_tm.factory ());
    mk ~name:"tm-always-abort" (fun () -> Slx_tm.Always_abort_tm.factory ());
  ]

let all () =
  base_cases () @ consensus_cases () @ object_cases () @ universal_cases ()
  @ tm_cases ()
