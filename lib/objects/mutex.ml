open Slx_history
open Slx_sim
open Slx_base_objects

type invocation = Acquire | Release

type response = Acquired | Released

let good = function Acquired -> true | Released -> false

let pp_invocation fmt = function
  | Acquire -> Format.pp_print_string fmt "acquire"
  | Release -> Format.pp_print_string fmt "release"

let pp_response fmt = function
  | Acquired -> Format.pp_print_string fmt "acquired"
  | Released -> Format.pp_print_string fmt "released"

type history = (invocation, response) History.t

let mutual_exclusion h =
  let rec go holder = function
    | [] -> true
    | Event.Response (p, Acquired) :: rest ->
        holder = None && go (Some p) rest
    | Event.Response (p, Released) :: rest ->
        holder = Some p && go None rest
    | (Event.Invocation _ | Event.Crash _) :: rest -> go holder rest
  in
  go None (History.to_list h)

let property = Slx_safety.Property.make ~name:"mutual-exclusion" mutual_exclusion

let tas_factory () : _ Runner.factory =
 fun ~n:_ ->
  let flag = Test_and_set.make () in
  fun ~proc:_ inv ->
    match inv with
    | Acquire ->
        let rec spin () =
          if Test_and_set.test_and_set flag then Acquired else spin ()
        in
        spin ()
    | Release ->
        Test_and_set.reset flag;
        Released

(* Whether a process holds the lock, read off its last response; the
   drivers keep it per process scheduler-side, so a run costs time
   linear in its length. *)
let holds held = function
  | Event.Response (_, Acquired) -> true
  | Event.Response (_, Released) -> false
  | Event.Invocation _ | Event.Crash _ -> held

let holds_lock () = Driver.fold_procs ~init:false holds ()

let invocation held = if held then Release else Acquire

let next () =
  let held = holds_lock () in
  fun view p -> Some (invocation (held view p))

let workload ?procs () = Driver.round_robin_by ?procs (next ())

let random_workload ?procs ~seed () =
  Driver.random_by ?procs ~seed (next ())

let starvation_adversary () : _ Driver.t =
  let held = holds_lock () in
  (* Whether p1's doomed attempt was already granted during the current
     hold of the lock. *)
  let granted_this_hold = ref false in
  fun view ->
    let lock_held =
      (* Any process currently between Acquired and Released. *)
      List.exists (held view) [ 1; 2 ]
    in
    if not lock_held then granted_this_hold := false;
    match view.Driver.status 1 with
    | Slx_sim.Runtime.Idle -> Driver.Invoke (1, Acquire)
    | Slx_sim.Runtime.Crashed -> Driver.Stop
    | Slx_sim.Runtime.Ready ->
        if lock_held && not !granted_this_hold then begin
          (* p1's test-and-set attempt, guaranteed to fail. *)
          granted_this_hold := true;
          Driver.Schedule 1
        end
        else begin
          match view.Driver.status 2 with
          | Slx_sim.Runtime.Ready -> Driver.Schedule 2
          | Slx_sim.Runtime.Idle ->
              Driver.Invoke (2, invocation (held view 2))
          | Slx_sim.Runtime.Crashed -> Driver.Stop
        end

let run_starvation ~factory ~max_steps =
  Runner.run ~n:2 ~factory ~driver:(starvation_adversary ()) ~max_steps ()

let acquisitions h =
  List.map
    (fun p ->
      ( p,
        List.length
          (List.filter (fun r -> r = Acquired) (History.responses_of h p)) ))
    (Proc.Set.elements (History.procs h))
