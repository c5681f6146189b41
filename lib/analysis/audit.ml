open Slx_history
open Slx_sim
module Json = Slx_obs.Json

(* ------------------------------------------------------------------ *)
(* Cases.                                                              *)

type ('inv, 'res) case_def = {
  c_name : string;
  c_group : string;
  c_n : int;
  c_factory : unit -> ('inv, 'res) Runner.factory;
  c_invoke : ('inv, 'res) Driver.view -> Proc.t -> 'inv option;
  c_pp_inv : 'inv -> string;
  c_depth : int;
  c_depth_ci : int;
  c_max_crashes : int;
  c_waive_opaque : bool;
  c_waive_never_wrote : bool;
}

type case = Case : ('inv, 'res) case_def -> case

let case ?(group = "misc") ?(depth = 6) ?depth_ci ?(max_crashes = 0)
    ?(waive_opaque = false) ?(waive_never_wrote = false) ~name ~n ~factory
    ~invoke ~pp_inv () =
  Case
    {
      c_name = name;
      c_group = group;
      c_n = n;
      c_factory = factory;
      c_invoke = invoke;
      c_pp_inv = pp_inv;
      c_depth = depth;
      c_depth_ci = (match depth_ci with Some d -> d | None -> depth + 2);
      c_max_crashes = max_crashes;
      c_waive_opaque = waive_opaque;
      c_waive_never_wrote = waive_never_wrote;
    }

let case_name (Case c) = c.c_name
let case_group (Case c) = c.c_group

(* ------------------------------------------------------------------ *)
(* Results.                                                            *)

type witness = {
  w_violation : Runtime.violation;
  w_script : string list;
  w_replayed : bool;
}

type lint =
  | Never_touched of int * Runtime.decl_stat
  | Never_wrote of int * Runtime.decl_stat
  | Opaque_steps of int

type case_result = {
  cr_name : string;
  cr_group : string;
  cr_depth : int;
  cr_runs : int;
  cr_steps : int;
  cr_witness : witness option;
  cr_hb_runs : int;
  cr_hb_edges : int;
  cr_hb_checks : int;
  cr_hb_mismatch : string option;
  cr_oracle_checks : int;
  cr_oracle_failures : string list;
  cr_lints : lint list;
}

let case_clean r =
  r.cr_witness = None && r.cr_hb_mismatch = None && r.cr_oracle_failures = []

type report = { rp_bound : string; rp_results : case_result list }

let clean rp = List.for_all case_clean rp.rp_results

(* ------------------------------------------------------------------ *)
(* The sweep.                                                          *)

exception Aborted
(* Private control-flow marker: the shared raising shadow flagged a
   violation; the typed witness script is in the sweep's [found]
   ref. *)

let pp_decision pp_inv = function
  | Driver.Schedule p -> Printf.sprintf "schedule p%d" p
  | Driver.Invoke (p, i) -> Printf.sprintf "invoke p%d (%s)" p (pp_inv i)
  | Driver.Crash p -> Printf.sprintf "crash p%d" p
  | Driver.Stop -> "stop"

(* Projection digest for the commutation oracle: commuting orders may
   differ in the interleaving of events of different processes, but
   every per-process projection must agree (doc/model.md §6). *)
let projection_digest ~n h =
  Runtime.hash_value (List.map (fun p -> History.project h p) (Proc.all ~n))

let run_case ?(bound = `Runtest) ?depth ?(oracle = false) ?(detect = true)
    ?(max_hb_runs = 64) ?(max_oracle_checks = 256) (Case c) =
  let depth =
    match depth with
    | Some d -> d
    | None -> ( match bound with `Runtest -> c.c_depth | `Ci -> c.c_depth_ci)
  in
  let n = c.c_n in
  (* The explorers' canonical menu, with no symmetry or POR filter: an
     audit certifies runs, so it wants the unreduced tree. *)
  let menu =
    Slx_core.Search.full_menu ~invoke:c.c_invoke ~depth
      ~max_crashes:c.c_max_crashes
  in
  let ticks = ref 0 in
  (* One shared shadow for the whole sweep: violations raise (under
     [detect]); declaration statistics aggregate across every cursor,
     prefix replays included, so [touched_steps = 0] at the end means
     the object was never touched on any audited run.  The audit runs
     on the same batched shadow as the explorers' [--sanitize]: touches
     are validated at step end (and at each nested-declaration flush),
     and a violation raises out of the offending grant there, the
     first one in program order, so [apply_checked] turns it into a
     witness ending with that grant's decision. *)
  let shadow = Runtime.make_shadow ~record:false ~raise_on_violation:detect () in
  let found = ref None in
  let runs = ref 0 in
  let hb_runs = ref 0
  and hb_edges = ref 0
  and hb_checks = ref 0
  and hb_mismatch = ref None in
  let oracle_checks = ref 0 and oracle_failures = ref [] in
  let apply_checked cursor rev_script d =
    try Runner.Cursor.apply cursor d
    with Runtime.Shadow_violation v ->
      found := Some (v, List.rev (d :: rev_script));
      raise Aborted
  in
  let with_fresh_cursor f =
    Runner.Cursor.with_ ~n ~factory:(c.c_factory ()) ~ticks ~shadow f
  in
  (* A leaf: certify the run's conflict relation by replaying its
     script under a fresh recording (never-raising) shadow and
     cross-checking observed accesses against declared footprints. *)
  let certify_leaf script =
    if !hb_runs < max_hb_runs && !hb_mismatch = None then begin
      incr hb_runs;
      let rec_sh = Runtime.make_shadow ~record:true ~raise_on_violation:false () in
      let r =
        Runner.Cursor.with_ ~n ~factory:(c.c_factory ()) ~ticks ~shadow:rec_sh
          ~prefix:script (fun cur -> Runner.Cursor.report cur ())
      in
      let steps = Hb.of_run ~shadow:rec_sh ~grants:r.Run_report.grants in
      match Hb.certify ~n steps with
      | Ok cert ->
          hb_edges := !hb_edges + cert.Hb.hb_edges;
          hb_checks := !hb_checks + cert.Hb.hb_checks
      | Error m -> hb_mismatch := Some (Format.asprintf "%a" Hb.pp_mismatch m)
    end
  in
  (* The commutation oracle: for schedule pairs the explorer would
     treat as commuting, execute both orders from this configuration
     and require identical resulting states and per-process
     projections. *)
  let oracle_node cursor rev_script =
    if oracle && !oracle_checks < max_oracle_checks then begin
      let prefix = List.rev rev_script in
      let view = Runner.Cursor.view cursor in
      let ready =
        List.filter (fun p -> view.Driver.status p = Runtime.Ready) (Proc.all ~n)
      in
      let pend p = Runner.Cursor.pending cursor p in
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              if
                p < q
                && !oracle_checks < max_oracle_checks
                &&
                match (pend p, pend q) with
                | Some a, Some b -> Runtime.commute a b
                | _ -> false
              then begin
                incr oracle_checks;
                (* No encode hook: the key's history id is 0 on both
                   sides, and the histories are compared by their
                   projections instead. *)
                let order d1 d2 =
                  Runner.Cursor.with_ ~n ~factory:(c.c_factory ()) ~ticks
                    ~prefix (fun cur ->
                      Runner.Cursor.apply cur (Driver.Schedule d1);
                      Runner.Cursor.apply cur (Driver.Schedule d2);
                      ( Runner.Cursor.compact_key cur ~extra:[],
                        projection_digest ~n
                          (Runner.Cursor.view cur).Driver.history ))
                in
                let same = order p q = order q p in
                if not same then
                  oracle_failures :=
                    Printf.sprintf
                      "steps of p%d and p%d declared commuting but executing \
                       both orders after [%s] diverges"
                      p q
                      (String.concat "; "
                         (List.map (pp_decision c.c_pp_inv) prefix))
                    :: !oracle_failures
              end)
            ready)
        ready
    end
  in
  (* Incremental DFS, the explorer's shape with reductions off: the
     first child extends the cursor in place, later siblings replay
     the decision prefix into a fresh cursor under the same shadow. *)
  let rec visit cursor rev_script len crashes =
    let decisions = menu (Runner.Cursor.view cursor) len crashes in
    match decisions with
    | [] ->
        incr runs;
        certify_leaf (List.rev rev_script)
    | _ ->
        oracle_node cursor rev_script;
        List.iteri
          (fun i d ->
            let crashes' =
              match d with Driver.Crash _ -> crashes + 1 | _ -> crashes
            in
            let descend child =
              apply_checked child rev_script d;
              visit child (d :: rev_script) (len + 1) crashes'
            in
            if i = 0 then descend cursor
            else
              with_fresh_cursor (fun cur ->
                  List.iter
                    (fun d -> apply_checked cur [] d)
                    (List.rev rev_script);
                  descend cur))
          decisions
  in
  (* Every other violation is caught by [apply_checked], so one escaping
     the root bracket was raised by the factory itself. *)
  (try with_fresh_cursor (fun root -> visit root [] 0 0) with
   | Aborted -> ()
   | Runtime.Shadow_violation v -> found := Some (v, []));
  (* Replay-verify the witness: a fresh instance under a fresh raising
     shadow must reproduce the same violation on the last decision.
     ([v_step] is a shadow-global ordinal, so only the violation's
     identity — kind, object, direction — is compared.) *)
  let witness =
    Option.map
      (fun ((v : Runtime.violation), script) ->
        let replayed =
          let sh = Runtime.make_shadow ~raise_on_violation:true () in
          match
            Runner.Cursor.with_ ~n ~factory:(c.c_factory ()) ~ticks:(ref 0)
              ~shadow:sh ~prefix:script ignore
          with
          | () -> false
          | exception Runtime.Shadow_violation v' ->
              v'.Runtime.v_kind = v.Runtime.v_kind
              && v'.Runtime.v_obj = v.Runtime.v_obj
              && v'.Runtime.v_write = v.Runtime.v_write
        in
        {
          w_violation = v;
          w_script = List.map (pp_decision c.c_pp_inv) script;
          w_replayed = replayed;
        })
      !found
  in
  let lints =
    let stats = Runtime.shadow_decl_stats shadow in
    let decl_lints =
      List.filter_map
        (fun (obj, (s : Runtime.decl_stat)) ->
          if s.Runtime.decl_steps > 0 && s.Runtime.touched_steps = 0 then
            Some (Never_touched (obj, s))
          else if
            s.Runtime.write_decl_steps > 0
            && s.Runtime.wrote_steps = 0
            && not c.c_waive_never_wrote
          then Some (Never_wrote (obj, s))
          else None)
        stats
    in
    let opaque = Runtime.shadow_opaque_steps shadow in
    if opaque > 0 && not c.c_waive_opaque then
      decl_lints @ [ Opaque_steps opaque ]
    else decl_lints
  in
  {
    cr_name = c.c_name;
    cr_group = c.c_group;
    cr_depth = depth;
    cr_runs = !runs;
    cr_steps = !ticks;
    cr_witness = witness;
    cr_hb_runs = !hb_runs;
    cr_hb_edges = !hb_edges;
    cr_hb_checks = !hb_checks;
    cr_hb_mismatch = !hb_mismatch;
    cr_oracle_checks = !oracle_checks;
    cr_oracle_failures = List.rev !oracle_failures;
    cr_lints = lints;
  }

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let pp_lint fmt = function
  | Never_touched (obj, s) ->
      Format.fprintf fmt
        "object %d declared in %d step(s) but never touched" obj
        s.Runtime.decl_steps
  | Never_wrote (obj, s) ->
      Format.fprintf fmt
        "object %d declared written in %d step(s) but never written" obj
        s.Runtime.write_decl_steps
  | Opaque_steps k ->
      Format.fprintf fmt
        "%d opaque step(s): invisible to the race detector and to POR" k

let pp_case_result fmt r =
  let verdict =
    if case_clean r then "ok"
    else if r.cr_witness <> None then "VIOLATION"
    else "FAIL"
  in
  Format.fprintf fmt "@[<v2>%-28s %-10s depth %d: %d runs, %d steps [%s]"
    r.cr_name r.cr_group r.cr_depth r.cr_runs r.cr_steps verdict;
  (match r.cr_witness with
  | Some w ->
      Format.fprintf fmt "@,%a%s" Runtime.pp_violation w.w_violation
        (if w.w_replayed then " (witness replays)"
         else " (WITNESS DOES NOT REPLAY)");
      Format.fprintf fmt "@,@[<v2>witness script:";
      List.iter (fun l -> Format.fprintf fmt "@,%s" l) w.w_script;
      Format.fprintf fmt "@]"
  | None -> ());
  (match r.cr_hb_mismatch with
  | Some m -> Format.fprintf fmt "@,hb mismatch: %s" m
  | None ->
      if r.cr_hb_runs > 0 then
        Format.fprintf fmt "@,hb: %d run(s) certified, %d edge(s), %d check(s)"
          r.cr_hb_runs r.cr_hb_edges r.cr_hb_checks);
  List.iter (fun f -> Format.fprintf fmt "@,oracle: %s" f) r.cr_oracle_failures;
  if r.cr_oracle_checks > 0 && r.cr_oracle_failures = [] then
    Format.fprintf fmt "@,oracle: %d pair(s) commute" r.cr_oracle_checks;
  List.iter (fun l -> Format.fprintf fmt "@,lint: %a" pp_lint l) r.cr_lints;
  Format.fprintf fmt "@]"

let pp_report fmt rp =
  Format.fprintf fmt "@[<v>slx audit (%s bound): %d case(s), %d dirty@,"
    rp.rp_bound
    (List.length rp.rp_results)
    (List.length (List.filter (fun r -> not (case_clean r)) rp.rp_results));
  List.iter (fun r -> Format.fprintf fmt "%a@," pp_case_result r) rp.rp_results;
  Format.fprintf fmt "@]"

let lint_to_json = function
  | Never_touched (obj, s) ->
      Printf.sprintf
        "{\"kind\": \"never_touched\", \"obj\": %d, \"decl_steps\": %d}" obj
        s.Runtime.decl_steps
  | Never_wrote (obj, s) ->
      Printf.sprintf
        "{\"kind\": \"never_wrote\", \"obj\": %d, \"write_decl_steps\": %d}"
        obj s.Runtime.write_decl_steps
  | Opaque_steps k ->
      Printf.sprintf "{\"kind\": \"opaque_steps\", \"steps\": %d}" k

let case_result_to_json r =
  let witness =
    match r.cr_witness with
    | None -> "null"
    | Some w ->
        let v = w.w_violation in
        let kind =
          match v.Runtime.v_kind with
          | Runtime.Undeclared_touch -> "undeclared_touch"
          | Runtime.Undeclared_nesting -> "undeclared_nesting"
          | Runtime.Outside_atomic -> "outside_atomic"
        in
        Printf.sprintf
          "{\"kind\": \"%s\", \"obj\": %d, \"write\": %b, \"replayed\": %b, \
           \"script\": [%s]}"
          kind v.Runtime.v_obj v.Runtime.v_write w.w_replayed
          (String.concat ", "
             (List.map Json.quote w.w_script))
  in
  Printf.sprintf
    "{\"name\": %s, \"group\": %s, \"depth\": %d, \"runs\": %d, \
     \"steps\": %d, \"clean\": %b, \"witness\": %s, \"hb_runs\": %d, \
     \"hb_edges\": %d, \"hb_checks\": %d, \"hb_mismatch\": %s, \
     \"oracle_checks\": %d, \"oracle_failures\": [%s], \"lints\": [%s]}"
    (Json.quote r.cr_name) (Json.quote r.cr_group) r.cr_depth r.cr_runs
    r.cr_steps
    (case_clean r) witness r.cr_hb_runs r.cr_hb_edges r.cr_hb_checks
    (match r.cr_hb_mismatch with
    | None -> "null"
    | Some m -> Json.quote m)
    r.cr_oracle_checks
    (String.concat ", "
       (List.map Json.quote r.cr_oracle_failures))
    (String.concat ", " (List.map lint_to_json r.cr_lints))

let report_to_json rp =
  Printf.sprintf "{\"bound\": \"%s\", \"clean\": %b, \"cases\": [%s]}"
    rp.rp_bound (clean rp)
    (String.concat ", " (List.map case_result_to_json rp.rp_results))
