(* Running one workload in this process. *)

(* A pass's time at reference speed: the query list once over, or one
   serve session with its two server starts. *)
let pass_s = function
  | "cli-safety" -> 8.5
  | "lib-safety" -> 11.5
  | "cli-liveness" -> 8.5
  | "serve-session" -> 7.
  | w -> invalid_arg ("unknown workload " ^ w)

(* The workload's result, its failure notes and its remarks (printed,
   not failing).  A timed run makes as many passes as fit [seconds] at
   reference speed, at least one; the number depends on [seconds]
   only, so every run of a workload does the same work. *)
let workload_run ?coverage_gate ~seconds ~traced w ~queries ~session =
  let passes = max 1 (truncate (seconds /. pass_s w)) in
  let ctx = Run_ctx.create ?coverage_gate ~traced ~passes () in
  let r =
    match w with
    | "cli-safety" | "cli-liveness" -> Cli_workload.run ctx (queries ())
    | "lib-safety" -> Lib_workload.run ctx queries
    | "serve-session" -> Serve_workload.run ctx (session ())
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  (r, List.rev ctx.Run_ctx.notes, List.rev ctx.Run_ctx.remarks)

(* The inputs line printed before every result: two commits that print
   the same digest ran identical inputs. *)
let header ~seed w =
  Printf.sprintf "# %s seed=%d queries=%d digest=%s" w seed
    (match w with
    | "serve-session" ->
        List.fold_left
          (fun a it -> a + Workloads.submissions it)
          0
          (Workloads.serve_session ~seed)
    | _ -> List.length (Workloads.queries ~seed w))
    (Workloads.digest ~seed w)
