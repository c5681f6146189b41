open Slx_history

let crash_probability = 0.01
let stall_probability = 0.2

let driver ~seed ~workload () : _ Driver.t =
  let rng = Random.State.make [| seed |] in
  fun view ->
    let procs = Proc.all ~n:view.Driver.n in
    let alive =
      List.filter (fun p -> view.Driver.status p <> Runtime.Crashed) procs
    in
    let crashed = List.length procs - List.length alive in
    (* Crash someone, if the dice say so and a survivor remains. *)
    if
      crashed < view.Driver.n - 1
      && Random.State.float rng 1.0 < crash_probability
      && alive <> []
    then Driver.Crash (List.nth alive (Random.State.int rng (List.length alive)))
    else begin
      let eligible p =
        match view.Driver.status p with
        | Runtime.Ready -> Some (Driver.Schedule p)
        | Runtime.Idle -> begin
            match workload p (view.Driver.invocations p) with
            | Some inv -> Some (Driver.Invoke (p, inv))
            | None -> None
          end
        | Runtime.Crashed -> None
      in
      let candidates = List.filter_map eligible procs in
      match candidates with
      | [] -> Driver.Stop
      | _ :: _ ->
          (* Pick a candidate; with stall probability, re-roll once or
             twice to bias the distribution away from uniformity. *)
          let pick () =
            List.nth candidates (Random.State.int rng (List.length candidates))
          in
          let d = pick () in
          if Random.State.float rng 1.0 < stall_probability then pick ()
          else d
    end

let survivor r =
  match
    List.find_opt
      (fun p -> not (Proc.Set.mem p r.Run_report.crashed))
      (Proc.all ~n:r.Run_report.n)
  with
  | Some p -> p
  | None -> invalid_arg "Chaos.survivor: everyone crashed"
