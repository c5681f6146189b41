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

(* Whether [p] currently holds the lock according to the history. *)
let holds_lock view p =
  let rec last_status = function
    | [] -> `Free
    | Event.Response (_, Acquired) :: _ -> `Held
    | Event.Response (_, Released) :: _ -> `Free
    | (Event.Invocation _ | Event.Crash _) :: rest -> last_status rest
  in
  (* Scan [p]'s responses backwards. *)
  last_status (List.rev (History.to_list (History.project view.Driver.history p)))

let next_invocation view p =
  match holds_lock view p with `Held -> Release | `Free -> Acquire

let workload ?procs () =
  Driver.round_robin_by ?procs (fun view p -> Some (next_invocation view p))

let random_workload ?procs ~seed () =
  Driver.random_by ?procs ~seed (fun view p -> Some (next_invocation view p))

let starvation_adversary () : _ Driver.t =
  (* Whether p1's doomed attempt was already granted during the current
     hold of the lock. *)
  let granted_this_hold = ref false in
  fun view ->
    let lock_held =
      (* Any process currently between Acquired and Released. *)
      List.exists (fun p -> holds_lock view p = `Held) [ 1; 2 ]
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
              Driver.Invoke (2, next_invocation view 2)
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
