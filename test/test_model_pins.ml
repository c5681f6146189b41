(* Run-level pins: the exact history and length of fixed-seed runs of
   the model algorithms under the library's schedulers.  Each pin is
   the deep hash ([Runtime.hash_value]) of the run's event list and
   its [total_time].  The exhaustive corpora pin what every schedule
   of an object does; these pin which schedule each driver picks, so
   a rewrite of an algorithm or of a scheduler that moves a single
   step or draws the random state differently fails here. *)

open Slx_history
open Slx_sim
open Slx_objects
open Support

let pin_of r =
  (Runtime.hash_value (History.to_list r.Run_report.history), r.Run_report.total_time)

let tms =
  [
    ("agp", Slx_tm.Agp_tm.factory ~vars:2);
    ("i12", Slx_tm.I12.factory ~vars:2);
    ("i12_reg", Slx_tm.I12_reg.factory ~vars:2);
    ("mutual_abort", Slx_tm.Mutual_abort_tm.factory ~vars:2);
  ]

let locks =
  [
    ("tas", Mutex.tas_factory ());
    ("bakery", Bakery.factory ());
    ("peterson", Peterson.factory ());
  ]

let tm_runs =
  List.concat_map
    (fun (name, factory) ->
      let run label driver =
        ( Printf.sprintf "%s %s" name label,
          fun () -> pin_of (Runner.run ~n:3 ~factory ~driver ~max_steps:300 ()) )
      in
      run "round_robin" (Slx_tm.Tm_workload.round_robin ())
      :: run "round_robin procs 1,3" (Slx_tm.Tm_workload.round_robin ~procs:[ 1; 3 ] ())
      :: run "random procs 2,3 seed 4"
           (Slx_tm.Tm_workload.random ~procs:[ 2; 3 ] ~seed:4 ())
      :: List.map
           (fun seed ->
             run (Printf.sprintf "random seed %d" seed)
               (Slx_tm.Tm_workload.random ~seed ()))
           [ 1; 2; 3 ])
    tms

let mutex_runs =
  List.concat_map
    (fun (name, factory) ->
      let run label driver =
        ( Printf.sprintf "%s %s" name label,
          fun () -> pin_of (Runner.run ~n:2 ~factory ~driver ~max_steps:200 ()) )
      in
      run "workload" (Mutex.workload ())
      :: run "workload procs 2" (Mutex.workload ~procs:[ 2 ] ())
      :: List.map
           (fun seed ->
             run (Printf.sprintf "random_workload seed %d" seed)
               (Mutex.random_workload ~seed ()))
           [ 1; 2; 3 ])
    locks

let consensus_runs =
  let propose =
    Driver.n_times 2 (fun p k -> Slx_consensus.Consensus_type.Propose ((p + k) mod 2))
  in
  let stack_ops =
    Driver.n_times 3 (fun p k ->
        if k mod 2 = 0 then Stack_type.Push ((10 * p) + k) else Stack_type.Pop)
  in
  List.concat_map
    (fun seed ->
      [
        ( Printf.sprintf "register consensus random seed %d" seed,
          fun () ->
            pin_of
              (Runner.run ~n:3
                 ~factory:(Slx_consensus.Register_consensus.factory ())
                 ~driver:(Driver.random ~seed ~workload:propose ())
                 ~max_steps:300 ()) );
        ( Printf.sprintf "universal stack over registers random seed %d" seed,
          fun () ->
            pin_of
              (Runner.run ~n:2
                 ~factory:
                   (Universal.factory ~tp:(module Stack_type.Self)
                      ~consensus:`Registers ())
                 ~driver:(Driver.random ~seed ~workload:stack_ops ())
                 ~max_steps:400 ()) );
      ])
    [ 1; 2; 3 ]

let runs = tm_runs @ mutex_runs @ consensus_runs

(* (run, history hash, total_time), recorded from the algorithms as
   first written. *)
let pins =
  [
    ("agp round_robin", 1708487155566929839, 300);
    ("agp round_robin procs 1,3", 3947005538410746161, 300);
    ("agp random procs 2,3 seed 4", -4574098883010849167, 300);
    ("agp random seed 1", 2711772805441261139, 300);
    ("agp random seed 2", 4529822485878959573, 300);
    ("agp random seed 3", 3533486729031466856, 300);
    ("i12 round_robin", 1321348064964791651, 300);
    ("i12 round_robin procs 1,3", -235409480539707963, 300);
    ("i12 random procs 2,3 seed 4", -1679366158072254079, 300);
    ("i12 random seed 1", -3925961158959478502, 300);
    ("i12 random seed 2", -1396690210497345766, 300);
    ("i12 random seed 3", -2852574565650580980, 300);
    ("i12_reg round_robin", -814635880817024730, 300);
    ("i12_reg round_robin procs 1,3", -3898691708070345663, 300);
    ("i12_reg random procs 2,3 seed 4", -253633132006198072, 300);
    ("i12_reg random seed 1", -604916400519789908, 300);
    ("i12_reg random seed 2", -340917349610344269, 300);
    ("i12_reg random seed 3", -1982314057028055407, 300);
    ("mutual_abort round_robin", 1631066186063789114, 300);
    ("mutual_abort round_robin procs 1,3", 4113474665702791441, 300);
    ("mutual_abort random procs 2,3 seed 4", -381946845961124319, 300);
    ("mutual_abort random seed 1", 1894366242256865733, 300);
    ("mutual_abort random seed 2", -3797679607615399086, 300);
    ("mutual_abort random seed 3", -461697374673637865, 300);
    ("tas workload", 1192781315219156706, 200);
    ("tas workload procs 2", -2194857626267760408, 200);
    ("tas random_workload seed 1", 737090966230769330, 200);
    ("tas random_workload seed 2", 1323774382799421876, 200);
    ("tas random_workload seed 3", -529907285437906652, 200);
    ("bakery workload", 113919586452271339, 200);
    ("bakery workload procs 2", 2027372289046335349, 200);
    ("bakery random_workload seed 1", 2673939381658401945, 200);
    ("bakery random_workload seed 2", -616346541903234527, 200);
    ("bakery random_workload seed 3", 2471271829666002464, 200);
    ("peterson workload", -2414635399538683906, 200);
    ("peterson workload procs 2", 2379977912662170431, 200);
    ("peterson random_workload seed 1", 1386981465543892489, 200);
    ("peterson random_workload seed 2", -4417076325741393563, 200);
    ("peterson random_workload seed 3", 1265826566221722379, 200);
    ("register consensus random seed 1", 124024372476010370, 66);
    ("universal stack over registers random seed 1", -1669465861471884249, 113);
    ("register consensus random seed 2", -250238251048402043, 120);
    ("universal stack over registers random seed 2", 4511813975192882366, 101);
    ("register consensus random seed 3", -1928964819004138933, 174);
    ("universal stack over registers random seed 3", -1456682926201368857, 85);
  ]

let test_pins () =
  List.iter
    (fun (name, run) ->
      let hash, time = run () in
      match List.find_opt (fun (n, _, _) -> String.equal n name) pins with
      | None -> Alcotest.failf "%s: no pin (hash %d, total_time %d)" name hash time
      | Some (_, h, t) ->
          check_int (name ^ ": total_time") t time;
          check_int (name ^ ": history hash") h hash)
    runs;
  check_int "every pin names a run" (List.length runs) (List.length pins)

let suites = [ ("model pins", [ quick "fixed-seed runs" test_pins ]) ]
