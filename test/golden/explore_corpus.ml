(* The safety half of the golden verdict corpus.  For every
   configuration of the grid
     impl    ∈ {cas, register, selfish}
     depth   ∈ {8, 10}
     crashes ∈ {0, 1, 2}
     flags   ∈ {none, --no-dpor, --no-symmetry, --sanitize, --naive}
   (90 in all) it runs the query exactly as `slx explore` does, in
   process, and prints the command line followed by the verdict and,
   for a counterexample, the failing history and the witness script.
   Each configuration's engine counters ({!Counters}) go to a separate
   file, `explore.counters.expected`: a reduction may change how many
   representatives it visits, never which verdict or which least
   witness it reports, so a perf change moves only the counters file.

   `slx explore` has no --procs, and at n = 2 no crash child's menu
   prunes anything under symmetry.  The library queries after the grid
   run the plain configuration at n = 3 (cas and register, depth 8,
   crashes 1 and 2), where a menu below a crash does prune, so the
   counters file pins [symmetry_pruned] there too.  They are labelled
   by the library call, as live_corpus.ml labels its own. *)

open Slx_core
open Slx_serve

let impls = [ "cas"; "register"; "selfish" ]
let depths = [ 8; 10 ]
let crash_bounds = [ 0; 1; 2 ]

type flags = {
  label : string;
  dpor : bool;
  symmetry : bool;
  sanitize : bool;
  naive : bool;
}

let plain =
  {
    label = "";
    dpor = true;
    symmetry = true;
    sanitize = false;
    naive = false;
  }

let flag_sets =
  [
    plain;
    { plain with label = " --no-dpor"; dpor = false };
    { plain with label = " --no-symmetry"; symmetry = false };
    { plain with label = " --sanitize"; sanitize = true };
    { plain with label = " --naive"; naive = true };
  ]

let answer sp f =
  if f.naive then
    Explore.explore_naive ~n:sp.Queries.sp_n ~factory:(Queries.factory sp)
      ~invoke:Queries.safety_invoke ~depth:sp.sp_depth
      ~max_crashes:sp.sp_crashes ~check:Queries.check ()
  else
    match Queries.run ~sanitize:f.sanitize sp with
    | Queries.Safety e, _ -> e
    | Queries.Live _, _ -> assert false

let print_verdict (e : _ Explore.exploration) =
  match e.Explore.outcome with
  | Explore.Ok _ -> print_endline "  ok"
  | Explore.Counterexample r ->
      Format.printf "  counterexample: %a@."
        Slx_consensus.Consensus_type.pp_history
        r.Slx_sim.Run_report.history;
      let script =
        Option.fold ~none:"(none)"
          ~some:(fun ds -> String.concat " " (List.map Queries.dec_string ds))
          e.Explore.witness_script
      in
      Printf.printf "  witness script: %s\n" script

let query ~impl ~n ~depth ~crashes f =
  match
    Queries.make ~kind:`Explore ~impl ~property:"" ~n ~depth ~crashes
      ~max_period:None ~pump:None ~dpor:f.dpor ~symmetry:f.symmetry
  with
  | Error e -> Error e
  | Ok sp -> Ok (answer sp f)

let () =
  let counters = Counters.channel () in
  List.iter
    (fun impl ->
      List.iter
        (fun depth ->
          List.iter
            (fun crashes ->
              List.iter
                (fun f ->
                  let cmd =
                    Printf.sprintf "slx explore --impl %s --depth %d --crashes %d%s"
                      impl depth crashes f.label
                  in
                  print_endline cmd;
                  match query ~impl ~n:2 ~depth ~crashes f with
                  | Error e -> Printf.printf "  error: %s\n" e
                  | Ok e ->
                      print_verdict e;
                      Counters.print counters cmd e.Explore.stats)
                flag_sets)
            crash_bounds)
        depths)
    impls;
  List.iter
    (fun impl ->
      List.iter
        (fun crashes ->
          let cmd =
            Printf.sprintf
              "Explore.explore %s n=3 depth 8 crashes %d (dpor, symmetry)"
              impl crashes
          in
          print_endline cmd;
          let e =
            Result.get_ok (query ~impl ~n:3 ~depth:8 ~crashes plain)
          in
          print_verdict e;
          Counters.print counters cmd e.Explore.stats)
        [ 1; 2 ])
    [ "cas"; "register" ];
  close_out counters
