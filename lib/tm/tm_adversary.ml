open Slx_history
open Slx_sim

let commits h =
  let count p =
    List.length
      (List.filter
         (fun r -> r = Tm_type.Committed)
         (History.responses_of h p))
  in
  List.map (fun p -> (p, count p)) (Proc.Set.elements (History.procs h))

(* Each process's last response, kept scheduler-side by the adversary
   that reads it, so a run costs time linear in its length. *)
let last_response () =
  Driver.fold_procs ~init:None
    (fun last -> function
      | Event.Response (_, r) -> Some r
      | Event.Invocation _ | Event.Crash _ -> last)
    ()

(* ------------------------------------------------------------------ *)
(* The Section 4.1 local-progress adversary.                           *)

(* The adversary's program counter: which operation it is currently
   driving, for which step of the strategy. *)
type lp_phase =
  | Step1_start
  | Step1_read
  | Step2_start
  | Step2_read
  | Step2_write
  | Step2_tryc
  | Step3_write
  | Step3_tryc
  | Won  (* p1 committed: the implementation was not opaque. *)

let local_progress_adversary ?(swap = false) () : _ Driver.t =
  let p1 = if swap then 2 else 1 in
  let p2 = if swap then 1 else 2 in
  let phase = ref Step1_start in
  let last_response = last_response () in
  (* v' is p1's last read value, v'' is p2's. *)
  let v' = ref 0 and v'' = ref 0 in
  let awaiting = ref false in
  (* The process and invocation of the current phase. *)
  let current () =
    match !phase with
    | Step1_start -> (p1, Tm_type.Start)
    | Step1_read -> (p1, Tm_type.Read 0)
    | Step2_start -> (p2, Tm_type.Start)
    | Step2_read -> (p2, Tm_type.Read 0)
    | Step2_write -> (p2, Tm_type.Write (0, !v' + 1))
    | Step2_tryc -> (p2, Tm_type.Try_commit)
    | Step3_write -> (p1, Tm_type.Write (0, !v'' + 1))
    | Step3_tryc -> (p1, Tm_type.Try_commit)
    | Won -> assert false
  in
  let transition response =
    let aborted = response = Tm_type.Aborted in
    phase :=
      match !phase with
      | Step1_start -> if aborted then Step1_start else Step1_read
      | Step1_read ->
          if aborted then Step1_start
          else begin
            (match response with Tm_type.Val v -> v' := v | _ -> ());
            Step2_start
          end
      | Step2_start -> if aborted then Step2_start else Step2_read
      | Step2_read ->
          if aborted then Step2_start
          else begin
            (match response with Tm_type.Val v -> v'' := v | _ -> ());
            Step2_write
          end
      | Step2_write -> if aborted then Step2_start else Step2_tryc
      | Step2_tryc -> if aborted then Step2_start else Step3_write
      | Step3_write -> if aborted then Step1_start else Step3_tryc
      | Step3_tryc -> if aborted then Step1_start else Won
      | Won -> Won
  in
  fun view ->
    if !phase = Won then Driver.Stop
    else begin
      (* If we were waiting for a response and the process is idle
         again, the response arrived: advance the state machine. *)
      (if !awaiting then
         let p, _ = current () in
         if view.Driver.status p = Runtime.Idle then begin
           awaiting := false;
           match last_response view p with
           | Some r -> transition r
           | None -> ()
         end);
      if !phase = Won then Driver.Stop
      else
        let p, inv = current () in
        match view.Driver.status p with
        | Runtime.Ready -> Driver.Schedule p
        | Runtime.Idle ->
            awaiting := true;
            Driver.Invoke (p, inv)
        | Runtime.Crashed -> Driver.Stop
    end

let run_local_progress ?swap ~factory ~max_steps () =
  Runner.run ~n:2 ~factory
    ~driver:(local_progress_adversary ?swap ())
    ~max_steps ()


(* ------------------------------------------------------------------ *)
(* The alternating-starts adversary (mutual abort).                    *)

let alternating_starts () : _ Driver.t =
  (* After the two opening starts, the cycle [p1 tryC; p1 start;
     p2 tryC; p2 start] guarantees that, against a latest-starter TM,
     every commit attempt finds the other process started in between. *)
  let prologue = [ (1, Tm_type.Start); (2, Tm_type.Start) ] in
  let cycle =
    [
      (1, Tm_type.Try_commit);
      (1, Tm_type.Start);
      (2, Tm_type.Try_commit);
      (2, Tm_type.Start);
    ]
  in
  let position = ref 0 in
  let awaiting = ref false in
  let current () =
    let i = !position in
    if i < List.length prologue then List.nth prologue i
    else List.nth cycle ((i - List.length prologue) mod List.length cycle)
  in
  fun view ->
    (if !awaiting then
       let p, _ = current () in
       if view.Driver.status p = Runtime.Idle then begin
         awaiting := false;
         incr position
       end);
    let p, inv = current () in
    match view.Driver.status p with
    | Runtime.Ready -> Driver.Schedule p
    | Runtime.Idle ->
        awaiting := true;
        Driver.Invoke (p, inv)
    | Runtime.Crashed -> Driver.Stop

let run_alternating_starts ~factory ~max_steps =
  Runner.run ~n:2 ~factory ~driver:(alternating_starts ()) ~max_steps ()

(* ------------------------------------------------------------------ *)
(* The Section 5.3 three-way adversary.                                *)

type tw_stage =
  | Starting   (** Driving three concurrent [start]s to completion. *)
  | Committing (** Driving the survivors' [tryC]s to completion. *)
  | Beaten     (** Someone committed: the implementation violated S'. *)

let three_way_adversary () : _ Driver.t =
  let procs = [ 1; 2; 3 ] in
  let stage = ref Starting in
  (* Who has been invoked in the current stage, and who participates
     (in Committing: those whose start was not aborted). *)
  let invoked = ref Proc.Set.empty in
  let participants = ref (Proc.Set.of_list procs) in
  let last_response = last_response () in
  fun view ->
    if !stage = Beaten then Driver.Stop
    else begin
      let status = view.Driver.status in
      let members = Proc.Set.elements !participants in
      let pending = List.filter (fun p -> status p = Runtime.Ready) members in
      let uninvoked =
        List.filter
          (fun p -> status p = Runtime.Idle && not (Proc.Set.mem p !invoked))
          members
      in
      (* First make every participant invoke, then drive all pending
         operations; when all responded, change stage. *)
      match uninvoked, pending with
      | p :: _, _ ->
          invoked := Proc.Set.add p !invoked;
          Driver.Invoke
            (p, if !stage = Starting then Tm_type.Start else Tm_type.Try_commit)
      | [], p :: _ ->
          (* Fair rotation: pick the pending process with fewest steps. *)
          let least =
            List.fold_left
              (fun best q ->
                if view.Driver.steps q < view.Driver.steps best then q else best)
              p pending
          in
          Driver.Schedule least
      | [], [] ->
          (* Stage complete: everyone responded. *)
          let responded_with r p = last_response view p = Some r in
          let restart_step1 () =
            stage := Starting;
            participants := Proc.Set.of_list procs;
            invoked := Proc.Set.singleton (List.hd procs);
            Driver.Invoke (List.hd procs, Tm_type.Start)
          in
          begin
            match !stage with
            | Starting ->
                let survivors =
                  List.filter
                    (fun p -> not (responded_with Tm_type.Aborted p))
                    members
                in
                begin
                  match survivors with
                  | [] ->
                      (* All starts aborted: restart Step 1. *)
                      restart_step1 ()
                  | first :: _ ->
                      stage := Committing;
                      participants := Proc.Set.of_list survivors;
                      invoked := Proc.Set.singleton first;
                      Driver.Invoke (first, Tm_type.Try_commit)
                end
            | Committing ->
                if List.exists (responded_with Tm_type.Committed) members
                then begin
                  stage := Beaten;
                  Driver.Stop
                end
                else restart_step1 ()
            | Beaten -> Driver.Stop
          end
    end

let run_three_way ~factory ~max_steps =
  Runner.run ~n:3 ~factory ~driver:(three_way_adversary ()) ~max_steps ()
