open Slx_history
open Support

(* Shorthand constructors over the register type. *)
let inv p i = Event.Invocation (p, i)
let res p r = Event.Response (p, r)
let crash p = Event.Crash p

let read = Register_type.Read
let write v = Register_type.Write v
let ok = Register_type.Ok
let value v = Register_type.Val v

let h_of = History.of_list

let sample =
  (* p1: write(1) -> ok; p2: read -> val(1); p1: read pending. *)
  h_of
    [
      inv 1 (write 1);
      inv 2 read;
      res 1 ok;
      res 2 (value 1);
      inv 1 read;
    ]

let test_roundtrip () =
  let events = History.to_list sample in
  check_bool "of_list/to_list roundtrip" true
    (History.equal ~inv:( = ) ~res:( = ) sample (h_of events));
  check_int "length" 5 (History.length sample)

let test_append () =
  let h = History.append History.empty (inv 1 read) in
  check_int "singleton length" 1 (History.length h);
  check_bool "not empty" false (History.is_empty h);
  check_bool "empty is empty" true (History.is_empty History.empty)

let test_nth () =
  check_bool "nth 0" true (History.nth sample 0 = inv 1 (write 1));
  check_bool "nth 4" true (History.nth sample 4 = inv 1 read);
  Alcotest.check_raises "nth out of bounds"
    (Invalid_argument "History.nth: index out of bounds") (fun () ->
      ignore (History.nth sample 5))

let test_project () =
  let p1 = History.project sample 1 in
  check_int "p1 events" 3 (History.length p1);
  check_bool "p1 events belong to p1" true
    (List.for_all (fun e -> Event.proc e = 1) (History.to_list p1));
  let p3 = History.project sample 3 in
  check_bool "absent process projects to empty" true (History.is_empty p3)

let test_procs_crashed () =
  let h = h_of [ inv 1 read; crash 1; inv 2 read ] in
  check_bool "procs" true (Proc.Set.equal (History.procs h) (Proc.Set.of_list [ 1; 2 ]));
  check_bool "crashed" true (Proc.Set.equal (History.crashed h) (Proc.Set.singleton 1));
  check_bool "p1 not correct" false (History.is_correct h 1);
  check_bool "p2 correct" true (History.is_correct h 2)

let test_well_formed_positive () =
  check_bool "sample is well-formed" true (History.is_well_formed sample);
  check_bool "empty is well-formed" true (History.is_well_formed History.empty);
  check_bool "crash while pending ok" true
    (History.is_well_formed (h_of [ inv 1 read; crash 1 ]))

let test_well_formed_negative () =
  check_bool "response without invocation" false
    (History.is_well_formed (h_of [ res 1 ok ]));
  check_bool "double invocation" false
    (History.is_well_formed (h_of [ inv 1 read; inv 1 read ]));
  check_bool "event after crash" false
    (History.is_well_formed (h_of [ crash 1; inv 1 read ]));
  check_bool "double response" false
    (History.is_well_formed (h_of [ inv 1 read; res 1 ok; res 1 ok ]))

let test_pending () =
  check_bool "p1 pending" true (History.pending sample 1 = Some read);
  check_bool "p2 not pending" true (History.pending sample 2 = None);
  let crashed_pending = h_of [ inv 1 read; crash 1 ] in
  check_bool "crashed process not pending" true
    (History.pending crashed_pending 1 = None);
  check_bool "pending_procs" true
    (Proc.Set.equal (History.pending_procs sample) (Proc.Set.singleton 1))

let test_prefixes () =
  let ps = History.prefixes sample in
  check_int "number of prefixes" 6 (List.length ps);
  check_bool "first prefix empty" true (History.is_empty (List.hd ps));
  check_bool "all are prefixes" true
    (List.for_all
       (fun p -> History.is_prefix ~inv:( = ) ~res:( = ) p sample)
       ps);
  check_bool "sample not prefix of shorter" false
    (History.is_prefix ~inv:( = ) ~res:( = ) sample (History.prefix sample 3))

let test_concat_rename () =
  let h1 = h_of [ inv 1 read ] and h2 = h_of [ res 1 ok ] in
  let h = History.concat h1 h2 in
  check_int "concat length" 2 (History.length h);
  check_bool "concat well-formed" true (History.is_well_formed h);
  let swapped = History.rename (fun p -> 3 - p) sample in
  check_bool "rename twice is identity" true
    (History.equal ~inv:( = ) ~res:( = ) sample
       (History.rename (fun p -> 3 - p) swapped));
  check_bool "rename moves events" true
    (History.length (History.project swapped 2) = 3)

let test_responses_invocations_of () =
  check_bool "responses of p1" true
    (History.responses_of sample 1 = [ ok ]);
  check_bool "invocations of p1" true
    (History.invocations_of sample 1 = [ write 1; read ]);
  check_int "count invocations" 3 (History.count Event.is_invocation sample)

(* Operations view. *)

let test_ops_extraction () =
  let ops = Op.of_history sample in
  check_int "three operations" 3 (List.length ops);
  let completed = List.filter Op.is_complete ops in
  check_int "two completed" 2 (List.length completed);
  let pending = List.filter (fun o -> not (Op.is_complete o)) ops in
  (match pending with
  | [ op ] ->
      check_int "pending proc" 1 op.Op.proc;
      check_bool "pending inv" true (op.Op.inv = read)
  | _ -> Alcotest.fail "expected exactly one pending op");
  ()

let test_ops_precedence () =
  (* p1's write completes (index 2) before p1's read is invoked (4). *)
  let ops = Op.of_history sample in
  let find p i =
    List.find (fun o -> o.Op.proc = p && o.Op.inv_index = i) ops
  in
  let w1 = find 1 0 and r2 = find 2 1 and r1 = find 1 4 in
  check_bool "w1 precedes r1" true (Op.precedes w1 r1);
  check_bool "w1 concurrent with r2" true (Op.concurrent w1 r2);
  check_bool "pending precedes nothing" false (Op.precedes r1 w1);
  check_bool "r2 precedes r1" true (Op.precedes r2 r1)

(* Event helpers. *)

let test_event_helpers () =
  let e = inv 2 read in
  check_int "proc" 2 (Event.proc e);
  check_bool "is_invocation" true (Event.is_invocation e);
  check_bool "invocation payload" true (Event.invocation e = Some read);
  check_bool "response payload none" true (Event.response e = None);
  check_bool "crash helpers" true (Event.is_crash (crash 1));
  let renamed = Event.rename (fun _ -> 7) e in
  check_int "renamed proc" 7 (Event.proc renamed)

(* Object_type helpers. *)

let test_object_type_sequential () =
  let tp : _ Object_type.t = (module Register_type) in
  let results =
    Object_type.sequential_responses tp [ write 3; read; write 5; read ]
  in
  (match results with
  | [ (st, responses) ] ->
      check_int "final state" 5 st;
      check_bool "responses" true
        (responses = [ ok; value 3; ok; value 5 ])
  | _ -> Alcotest.fail "register spec is deterministic");
  check_bool "legal sequence accepted" true
    (Object_type.legal_sequential tp [ (write 3, ok); (read, value 3) ]);
  check_bool "illegal sequence rejected" false
    (Object_type.legal_sequential tp [ (write 3, ok); (read, value 4) ])

(* Property-based tests. *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"of_list(to_list h) = h" ~count:100
    ~print:register_history_print
    (well_formed_register_history_gen ~n:3 ~len:20)
    (fun h ->
      History.equal ~inv:( = ) ~res:( = ) h (h_of (History.to_list h)))

let prop_generator_well_formed =
  QCheck2.Test.make ~name:"generated histories are well-formed" ~count:200
    ~print:register_history_print
    (well_formed_register_history_gen ~n:4 ~len:30)
    History.is_well_formed

(* The well-formedness check as it was first written: a chronological
   scan that keeps every process's status in a hash table.  The oracle
   of [prop_well_formed_oracle]. *)
let well_formed_oracle h =
  let statuses = Hashtbl.create 8 in
  let status p = Option.value (Hashtbl.find_opt statuses p) ~default:`Idle in
  let ok = ref true in
  let step e =
    let p = Event.proc e in
    match (e, status p) with
    | _, `Crashed -> ok := false
    | Event.Invocation _, `Idle -> Hashtbl.replace statuses p `Pending
    | Event.Invocation _, `Pending -> ok := false
    | Event.Response _, `Pending -> Hashtbl.replace statuses p `Idle
    | Event.Response _, `Idle -> ok := false
    | Event.Crash _, (`Idle | `Pending) -> Hashtbl.replace statuses p `Crashed
  in
  List.iter step (History.to_list h);
  !ok

(* Any sequence of register events over three processes, well-formed
   or not, or a well-formed history with one event inserted. *)
let any_register_history_gen =
  QCheck2.Gen.(
    let event =
      let* p = int_range 1 3 and* kind = int_range 0 2 and* v = int_range 0 2 in
      return
        (match kind with
        | 0 -> inv p (if v = 0 then read else write v)
        | 1 -> res p (if v = 0 then ok else value v)
        | _ -> crash p)
    in
    oneof
      [
        map h_of (list_size (int_range 0 12) event);
        (let* h = well_formed_register_history_gen ~n:3 ~len:15
         and* e = event in
         let* i = int_range 0 (History.length h) in
         let events = History.to_list h in
         return
           (h_of
              (List.filteri (fun j _ -> j < i) events
              @ (e :: List.filteri (fun j _ -> j >= i) events))));
      ])

let prop_well_formed_oracle =
  QCheck2.Test.make ~name:"is_well_formed = the hash-table scan" ~count:500
    ~print:register_history_print any_register_history_gen (fun h ->
      History.is_well_formed h = well_formed_oracle h)

let prop_prefix_count =
  QCheck2.Test.make ~name:"|prefixes h| = |h| + 1" ~count:100
    ~print:register_history_print
    (well_formed_register_history_gen ~n:3 ~len:15)
    (fun h -> List.length (History.prefixes h) = History.length h + 1)

let prop_prefixes_well_formed =
  QCheck2.Test.make ~name:"prefixes of well-formed are well-formed" ~count:100
    ~print:register_history_print
    (well_formed_register_history_gen ~n:3 ~len:15)
    (fun h -> List.for_all History.is_well_formed (History.prefixes h))

let prop_project_partition =
  QCheck2.Test.make ~name:"projections partition the events" ~count:100
    ~print:register_history_print
    (well_formed_register_history_gen ~n:4 ~len:20)
    (fun h ->
      let total =
        List.fold_left
          (fun acc p -> acc + History.length (History.project h p))
          0 (Proc.all ~n:4)
      in
      total = History.length h)

let prop_ops_complete_have_response_after_inv =
  QCheck2.Test.make ~name:"completed ops: inv index < res index" ~count:100
    ~print:register_history_print
    (well_formed_register_history_gen ~n:3 ~len:25)
    (fun h ->
      List.for_all
        (fun op ->
          match op.Op.res_index with
          | Some r -> op.Op.inv_index < r
          | None -> true)
        (Op.of_history h))

let suites =
  [
    ( "history",
      [
        quick "roundtrip" test_roundtrip;
        quick "append" test_append;
        quick "nth" test_nth;
        quick "project" test_project;
        quick "procs and crashes" test_procs_crashed;
        quick "well-formed positive" test_well_formed_positive;
        quick "well-formed negative" test_well_formed_negative;
        quick "pending" test_pending;
        quick "prefixes" test_prefixes;
        quick "concat and rename" test_concat_rename;
        quick "responses and invocations" test_responses_invocations_of;
        quick "ops extraction" test_ops_extraction;
        quick "ops precedence" test_ops_precedence;
        quick "event helpers" test_event_helpers;
        quick "object type sequential" test_object_type_sequential;
      ]
      @ qcheck
          [
            prop_roundtrip;
            prop_generator_well_formed;
            prop_well_formed_oracle;
            prop_prefix_count;
            prop_prefixes_well_formed;
            prop_project_partition;
            prop_ops_complete_have_response_after_inv;
          ] );
  ]
