open Slx_history
open Slx_sim
module B = Slx_base_objects
module Explore = Slx_core.Explore

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
   cap bounds total invocations so audit trees stay finite. *)
let tm_invoke ~cap view p =
  if view.Driver.invocations p >= cap then None
  else Some (Slx_tm.Tm_workload.next_invocation view p)

(* ------------------------------------------------------------------ *)
(* Base-object exercisers: one tiny harness per primitive, so every
   instrumented base object is audited directly, not only through the
   algorithms that happen to use it. *)

type base_inv = Op of int
type base_res = Res of int

let pp_base (Op k) = "op " ^ string_of_int k

let base_invoke =
  counting (Driver.n_times 2 (fun p k -> Op ((2 * p) + k)))

let base_case ~name ?(waive_never_wrote = false) impl_of =
  Audit.case ~group:"base" ~name ~n:2 ~depth:6 ~waive_never_wrote
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
    (* CAS against a stale expected value may never physically write
       at this depth; that is the primitive working as specified. *)
    base_case ~name:"base-cas" ~waive_never_wrote:true (fun ~n:_ ->
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
    Audit.case ~group:"consensus" ~name ~n:2 ~depth ~max_crashes ~factory
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

(* One-shot consensus objects, audited through a direct harness. *)
let one_shot_case ~name ?(waive_opaque = false) (module C : Slx_objects
                                                  .One_shot_consensus.S) =
  Audit.case ~group:"consensus" ~name ~n:2 ~depth:6 ~waive_opaque
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
  Audit.case ~group:"objects" ~name ~n:2 ~depth ~max_crashes ~factory
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
    Audit.case ~group:"objects" ~name:"treiber-stack" ~n:2 ~depth:6
      ~factory:(fun () -> Slx_objects.Treiber_stack.factory ())
      ~invoke:stack_invoke ~pp_inv:pp_stack ();
    Audit.case ~group:"objects" ~name:"cas-queue" ~n:2 ~depth:6
      ~factory:(fun () -> Slx_objects.Cas_queue.factory ())
      ~invoke:queue_invoke ~pp_inv:pp_queue ();
    Audit.case ~group:"objects" ~name:"snapshot-alg" ~n:2 ~depth:6
      ~factory:(fun () -> snapshot_factory)
      ~invoke:
        (counting
           (Driver.n_times 2 (fun p k ->
                if k mod 2 = 0 then Sn.Update (p, (10 * p) + k) else Sn.Scan)))
      ~pp_inv:pp_snapshot ();
    one_shot_case ~name:"oneshot-cas" (module Slx_objects.One_shot_consensus.Cas);
    one_shot_case ~name:"oneshot-registers" ~waive_opaque:true
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
  let mk ~name consensus waive_opaque =
    Audit.case ~group:"universal" ~name ~n:2 ~depth:5 ~depth_ci:7
      ~waive_opaque
      ~factory:(fun () ->
        Slx_objects.Universal.factory ~tp:stack_tp ~consensus ~max_ops:8 ())
      ~invoke ~pp_inv:pp_stack ()
  in
  (* Both variants allocate log slots lazily behind an opaque lookup
     step, hence the waivers. *)
  [ mk ~name:"universal-cas" `Cas true;
    mk ~name:"universal-registers" `Registers true ]

(* ------------------------------------------------------------------ *)
(* Transactional memories. *)

let tm_cases () =
  let pp = asprintf Slx_tm.Tm_type.pp_invocation in
  let mk ~name ?(depth = 6) factory =
    Audit.case ~group:"tm" ~name ~n:2 ~depth ~factory
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

(* ------------------------------------------------------------------ *)
(* Fixtures (not part of [all]): the deliberately mis-declared
   implementations of {!Fixtures}, for the sanitizer's own tests. *)

let fixture_case ~name ?(waive_opaque = false) factory =
  Audit.case ~group:"fixture" ~name ~n:2 ~depth:5 ~waive_opaque
    ~factory:(fun () -> factory)
    ~invoke:(counting (Fixtures.workload ~ops:1))
    ~pp_inv:Fixtures.pp_inv ()

let fixture_cases () =
  [
    fixture_case ~name:"fixture-leaky" Fixtures.leaky_factory;
    fixture_case ~name:"fixture-write-under-read"
      Fixtures.write_under_read_factory;
    fixture_case ~name:"fixture-phantom" Fixtures.phantom_factory;
    fixture_case ~name:"fixture-nested-escape" Fixtures.nested_escape_factory;
    fixture_case ~name:"fixture-nested-ok" ~waive_opaque:true
      Fixtures.nested_ok_factory;
    fixture_case ~name:"fixture-clean" Fixtures.clean_factory;
    (* The depth-gated leak: its undeclared write fires on the eighth
       poke, far past these bounds, so the dynamic sanitizer reports
       clean while the static lint flags the site (EXPERIMENTS E26). *)
    Audit.case ~group:"fixture" ~name:"fixture-deep-leak" ~n:2 ~depth:6
      ~factory:(fun () -> Fixtures.deep_leaky_factory)
      ~invoke:(counting (Fixtures.workload ~ops:12))
      ~pp_inv:Fixtures.pp_inv ();
  ]

let all () =
  base_cases () @ consensus_cases () @ object_cases () @ universal_cases ()
  @ tm_cases ()

let select ?group ?name cases =
  List.filter
    (fun c ->
      (match group with
      | Some g -> Audit.case_group c = g
      | None -> true)
      && match name with Some n -> Audit.case_name c = n | None -> true)
    cases
