(* The safety half of the golden verdict corpus.  For every
   configuration of the grid
     impl    ∈ {cas, register, selfish}
     depth   ∈ {8, 10}
     crashes ∈ {0, 1, 2}
     walk    ∈ {slx explore, Explore.explore (symmetry),
                Explore.explore (dpor), slx explore --naive}
   (72 in all) it runs the query in process and prints its header
   followed by the verdict and, for a counterexample, the failing
   history and the witness script.  The two `slx explore` walks run
   exactly as the CLI does; the two table walks, one reduction each,
   are library configurations and are labelled by the library call.
   Each configuration's engine counters ({!Counters}) go to a separate
   file, `explore.counters.expected`: a reduction may change how many
   representatives it visits, never which verdict or which least
   witness it reports, so a perf change moves only the counters file.

   `slx explore` has no --procs, and at n = 2 no crash child's menu
   prunes anything under symmetry.  The library queries after the grid
   run the plain configuration at n = 3 (cas and register, depth 8,
   crashes 1 and 2), where a menu below a crash does prune, so the
   counters file pins [symmetry_pruned] there too. *)

open Slx_core
open Slx_serve

let impls = [ "cas"; "register"; "selfish" ]
let depths = [ 8; 10 ]
let crash_bounds = [ 0; 1; 2 ]

(* A walk of the grid: the product's, the naive reference, or a table
   walk with one reduction on. *)
type walk = Plain | Symmetry_alone | Dpor_alone | Naive

let walks = [ Plain; Symmetry_alone; Dpor_alone; Naive ]

let header ~impl ~n ~depth ~crashes = function
  | Plain | Naive as w ->
      Printf.sprintf "slx explore --impl %s --depth %d --crashes %d%s" impl
        depth crashes
        (if w = Naive then " --naive" else "")
  | Symmetry_alone | Dpor_alone as w ->
      Printf.sprintf "Explore.explore %s n=%d depth %d crashes %d (%s)" impl n
        depth crashes
        (if w = Dpor_alone then "dpor" else "symmetry")

let answer sp w =
  let n = sp.Queries.sp_n and factory = Queries.factory sp in
  let depth = sp.sp_depth and max_crashes = sp.sp_crashes in
  match w with
  | Naive ->
      Explore.explore_naive ~n ~factory ~invoke:Queries.safety_invoke ~depth
        ~max_crashes ~check:Queries.check ()
  | Symmetry_alone | Dpor_alone ->
      Explore.explore ~n ~factory ~invoke:Queries.safety_invoke ~depth
        ~max_crashes ~dpor:(w = Dpor_alone) ~symmetry:(w = Symmetry_alone)
        ~check:Queries.check ()
  | Plain -> (
      match Queries.run sp with
      | Queries.Safety e, _ -> e
      | Queries.Live _, _ -> assert false)

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

let query ~impl ~n ~depth ~crashes w =
  Result.map
    (fun sp -> answer sp w)
    (Queries.make ~kind:`Explore ~impl ~property:"" ~n ~depth ~crashes
       ~max_period:None ~pump:None ~dpor:true)

let () =
  let counters = Counters.channel () in
  List.iter
    (fun impl ->
      List.iter
        (fun depth ->
          List.iter
            (fun crashes ->
              List.iter
                (fun w ->
                  let cmd = header ~impl ~n:2 ~depth ~crashes w in
                  print_endline cmd;
                  match query ~impl ~n:2 ~depth ~crashes w with
                  | Error e -> Printf.printf "  error: %s\n" e
                  | Ok e ->
                      print_verdict e;
                      Counters.print counters cmd e.Explore.stats)
                walks)
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
            Result.get_ok (query ~impl ~n:3 ~depth:8 ~crashes Plain)
          in
          print_verdict e;
          Counters.print counters cmd e.Explore.stats)
        [ 1; 2 ])
    [ "cas"; "register" ];
  close_out counters
