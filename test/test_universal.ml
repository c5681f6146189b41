(* The universal construction: any deterministic object, linearizable
   by construction, with liveness inherited from the consensus
   building block. *)

open Slx_history
open Slx_sim
open Slx_liveness
open Slx_objects
open Support

module Reg_lin = Slx_safety.Linearizability.Make (Register_type)
module Stack_lin = Slx_safety.Linearizability.Make (Stack_type.Self)

let register_tp : _ Object_type.t = (module Register_type)
let stack_tp : _ Object_type.t = (module Stack_type.Self)

let register_workload : (Register_type.invocation, Register_type.response) Driver.workload =
  Driver.n_times 4 (fun p k ->
      if (p + k) mod 2 = 0 then Register_type.Read
      else Register_type.Write ((10 * p) + k))

let stack_workload : (Stack_type.invocation, Stack_type.response) Driver.workload =
  Driver.n_times 4 (fun p k ->
      if k mod 2 = 0 then Stack_type.Push ((100 * p) + k) else Stack_type.Pop)

let run_universal ~tp ~consensus ~workload ~seed ~n ~max_steps =
  Runner.run ~n
    ~factory:(Universal.factory ~tp ~consensus ())
    ~driver:(Driver.random ~seed ~workload ())
    ~max_steps ()

let test_universal_register_cas () =
  List.iter
    (fun seed ->
      let r =
        run_universal ~tp:register_tp ~consensus:`Cas
          ~workload:register_workload ~seed ~n:3 ~max_steps:400
      in
      check_bool
        (Printf.sprintf "linearizable (seed %d)" seed)
        true
        (Reg_lin.check r.Run_report.history);
      check_bool "all operations complete (lock-free log)" true
        (History.pending_procs r.Run_report.history = Proc.Set.empty))
    [ 1; 2; 3; 4 ]

let test_universal_stack_cas () =
  List.iter
    (fun seed ->
      let r =
        run_universal ~tp:stack_tp ~consensus:`Cas ~workload:stack_workload
          ~seed ~n:2 ~max_steps:400
      in
      check_bool
        (Printf.sprintf "stack linearizable (seed %d)" seed)
        true
        (Stack_lin.check r.Run_report.history))
    [ 5; 6; 7 ]

let test_universal_register_from_registers_solo () =
  (* Obstruction-freedom of the register-consensus log: a solo process
     completes operations. *)
  let r =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp:register_tp ~consensus:`Registers ())
      ~driver:
        (Driver.with_crashes [ (0, 2) ]
           (Driver.solo 1 ~workload:register_workload))
      ~max_steps:600 ()
  in
  check_int "solo process completes its four ops" 4
    (List.length (History.responses_of r.Run_report.history 1));
  check_bool "linearizable" true (Reg_lin.check r.Run_report.history);
  check_bool "(1,1)-freedom" true
    (Freedom.holds
       ~good:(fun (_ : Register_type.response) -> true)
       r Freedom.obstruction_freedom)

let test_universal_from_registers_lockstep_starves () =
  (* The consensus impossibility lifts to EVERY universal object from
     registers: a lockstep schedule ties the first log slot's
     commit-adopt cascade forever, so neither process ever completes
     an operation - yet linearizability is never violated. *)
  let lockstep : (Register_type.invocation, Register_type.response) Driver.t =
   fun view ->
    let next = if view.Driver.steps 1 <= view.Driver.steps 2 then 1 else 2 in
    match view.Driver.status next with
    | Runtime.Ready -> Driver.Schedule next
    | Runtime.Idle ->
        Driver.Invoke
          (next, if next = 1 then Register_type.Write 1 else Register_type.Write 2)
    | Runtime.Crashed -> Driver.Stop
  in
  let r =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp:register_tp ~consensus:`Registers ())
      ~driver:lockstep ~max_steps:2000 ()
  in
  check_bool "no operation ever completes" true
    (History.count Event.is_response r.Run_report.history = 0);
  check_bool "fair" true (Fairness.is_bounded_fair r);
  check_bool "linearizable (vacuously safe)" true
    (Reg_lin.check r.Run_report.history);
  check_bool "(1,2)-freedom violated for the universal register" false
    (Freedom.holds
       ~good:(fun (_ : Register_type.response) -> true)
       r (Freedom.make ~l:1 ~k:2))

let test_universal_agreement_across_processes () =
  (* All processes replay the same log: cross-process reads see a
     single coherent register. *)
  let r =
    run_universal ~tp:register_tp ~consensus:`Cas ~workload:register_workload
      ~seed:11 ~n:4 ~max_steps:600
  in
  check_bool "well-formed" true (History.is_well_formed r.Run_report.history);
  check_bool "linearizable with four processes" true
    (Reg_lin.check r.Run_report.history)

(* The footprints of a solo process's steps while it runs [ops] in
   turn, [steps] steps each. *)
let solo_footprints ~consensus ~ops ~steps =
  let probe = Runtime.make_probe () in
  let factory = Universal.factory ~tp:stack_tp ~consensus ~max_ops:4 () in
  Runner.Cursor.with_ ~n:1 ~factory ~probe (fun c ->
      List.concat_map
        (fun op ->
          Runner.Cursor.apply c (Driver.Invoke (1, op));
          List.init steps (fun _ ->
              Runner.Cursor.apply c (Driver.Schedule 1);
              match Runtime.accesses (Runtime.probe_last_observed probe) with
              | None -> "opaque"
              | Some accs ->
                  String.concat ";"
                    (List.map
                       (fun a ->
                         Printf.sprintf "%s%d"
                           (if a.Runtime.write then "W" else "R")
                           a.Runtime.obj)
                       accs)))
        ops)

(* Slots are built in slot order and number their objects from the
   registry's counter: slot [i]'s CAS is id [i + 1], and a slot's
   register consensus takes the id block after the previous slot's. *)
let test_slots_numbered_in_slot_order () =
  Alcotest.(check (list string))
    "CAS log: each operation swaps, then reads, the next slot"
    [ "W1"; "R1"; "W2"; "R2"; "W3"; "R3" ]
    (solo_footprints ~consensus:`Cas
       ~ops:Stack_type.[ Push 1; Push 2; Pop ]
       ~steps:2);
  let block = 1 + (4096 * 2) in
  let first_of_each =
    List.filteri
      (fun i _ -> i mod 6 = 0)
      (solo_footprints ~consensus:`Registers
         ~ops:Stack_type.[ Push 1; Push 2 ]
         ~steps:6)
  in
  Alcotest.(check (list string))
    "register log: each slot's first step reads its own decision register"
    [ "R1"; Printf.sprintf "R%d" (1 + block) ]
    first_of_each

let prop_universal_linearizable =
  QCheck2.Test.make ~name:"universal objects are linearizable" ~count:10
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r =
        run_universal ~tp:stack_tp ~consensus:`Cas ~workload:stack_workload
          ~seed ~n:2 ~max_steps:300
      in
      Stack_lin.check r.Run_report.history)

let suites =
  [
    ( "universal",
      [
        quick "register over CAS consensus" test_universal_register_cas;
        quick "stack over CAS consensus" test_universal_stack_cas;
        quick "register-consensus log, solo" test_universal_register_from_registers_solo;
        quick "register-consensus log, lockstep starves"
          test_universal_from_registers_lockstep_starves;
        quick "agreement across processes" test_universal_agreement_across_processes;
        quick "slots numbered in slot order" test_slots_numbered_in_slot_order;
      ]
      @ qcheck [ prop_universal_linearizable ] );
  ]
