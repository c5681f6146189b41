(* The liveness half of the golden verdict corpus.  It runs, in
   process and exactly as `slx live-explore` does, and prints each
   query's command line followed by its verdict and, for a lasso, the
   stem and cycle of the certificate:

   - the 432-configuration sweep
       impl     ∈ {cas, register, selfish}
       property ∈ {obstruction, 1,1, 1,2, 2,2, lock, wait}
       n = 2 at depth 4-10, n = 3 at depth 4-8, crashes ∈ {0, 1}
     at the default and under --no-dpor (the exhaustive reference);
   - the live grid: the three impls × obstruction/1,2/1,1 at n = 2,
     depth 12, one crash, without and with --max-period 2, each plain
     and --no-dpor;
   - the cells of Queries.consensus_exhaustive ~n:2 ~depth:8;
   - the TL2 (1,1) lasso at depth 20 with one crash, and the I12
     regression certificate (a stored witness whose cycle is no run
     of the TM workload, which must not re-validate);
   - two deeper register obstruction legs that pin the cache and the
     reduction counters: n = 2 depth 14 with one crash, and n = 3
     depth 11 with two crashes, both --max-period 2.

   Every query with engine stats also writes its counters ({!Counters})
   to a separate file, `live.counters.expected`: a reduction may
   change how many nodes it visits, never which verdict or which least
   certificate it reports, so a perf change moves only the counters
   file.  The Figure 1 cells and the I12 re-validation report no
   stats.

   A default line whose verdict or certificate differs from the same
   query's --no-dpor line is tagged.  The DPOR-reduced live tree is
   not complete under a depth bound (doc/model.md §7): where the
   exhaustive search finds a lasso the reduced one can answer
   no_fair_cycle.  Those lines are the program's present answers,
   checked in as printed and marked as known misses rather than left
   out. *)

open Slx_sim
open Slx_core
open Slx_liveness
open Slx_serve

let impls = [ "cas"; "register"; "selfish" ]

(* --- printing ------------------------------------------------------ *)

let script dec ds = String.concat " " (List.map dec ds)

let verdict dec = function
  | Live_explore.No_fair_cycle -> "no_fair_cycle"
  | Live_explore.Lasso c ->
      Printf.sprintf "lasso  stem: %s  cycle: %s" (script dec c.Lasso.c_stem)
        (script dec c.Lasso.c_cycle)

(* Why a reduced answer differs from the exhaustive one, if it does. *)
let tag ~reduced ~exhaustive =
  match (reduced, exhaustive) with
  | Live_explore.No_fair_cycle, Live_explore.Lasso _ ->
      "  [known reduced-tree miss: --no-dpor finds a lasso]"
  | Live_explore.Lasso _, Live_explore.No_fair_cycle ->
      "  [DEFECT: a lasso the exhaustive search does not find]"
  | Live_explore.Lasso a, Live_explore.Lasso b
    when a.Lasso.c_stem <> b.Lasso.c_stem || a.Lasso.c_cycle <> b.Lasso.c_cycle
    ->
      "  [the reduced tree's least lasso: --no-dpor reports another]"
  | _ -> ""

(* --- CLI queries ---------------------------------------------------- *)

let counters = Counters.channel ()

let run sp =
  match Queries.run sp with
  | Queries.Live r, _ -> r
  | Queries.Safety _, _ -> assert false

(* A query's command line and verdict, and its counters to the
   counters file. *)
let print ?(tag = "") cmd (r : _ Live_explore.result) =
  Printf.printf "%s\n  %s%s\n" cmd
    (verdict Queries.dec_string r.Live_explore.outcome)
    tag;
  Counters.print counters cmd r.Live_explore.stats

let command ~impl ~property ~n ~depth ~crashes ~max_period =
  Printf.sprintf
    "slx live-explore --impl %s --property %s --procs %d --depth %d \
     --crashes %d%s"
    impl property n depth crashes
    (match max_period with
    | None -> ""
    | Some p -> Printf.sprintf " --max-period %d" p)

let spec ~impl ~property ~n ~depth ~crashes ~max_period dpor =
  Result.get_ok
    (Queries.make ~kind:`Live ~impl ~property ~n ~depth ~crashes ~max_period
       ~pump:None ~dpor)

(* One query at the default and under --no-dpor, the default tagged
   by their difference. *)
let pair ~impl ~property ~n ~depth ~crashes ~max_period =
  let cmd = command ~impl ~property ~n ~depth ~crashes ~max_period in
  let reduced = run (spec ~impl ~property ~n ~depth ~crashes ~max_period true)
  and exhaustive =
    run (spec ~impl ~property ~n ~depth ~crashes ~max_period false)
  in
  print cmd reduced
    ~tag:
      (tag ~reduced:reduced.Live_explore.outcome
         ~exhaustive:exhaustive.Live_explore.outcome);
  print (cmd ^ " --no-dpor") exhaustive

let sweep () =
  let properties = [ "obstruction"; "1,1"; "1,2"; "2,2"; "lock"; "wait" ] in
  let sizes = [ (2, 10); (3, 8) ] in
  List.iter
    (fun impl ->
      List.iter
        (fun property ->
          List.iter
            (fun (n, max_depth) ->
              for depth = 4 to max_depth do
                List.iter
                  (fun crashes ->
                    pair ~impl ~property ~n ~depth ~crashes ~max_period:None)
                  [ 0; 1 ]
              done)
            sizes)
        properties)
    impls

let live_grid () =
  List.iter
    (fun impl ->
      List.iter
        (fun property ->
          List.iter
            (fun max_period ->
              pair ~impl ~property ~n:2 ~depth:12 ~crashes:1 ~max_period)
            [ None; Some 2 ])
        [ "obstruction"; "1,2"; "1,1" ])
    impls

(* --- library queries ------------------------------------------------ *)

let figure1 () =
  print_endline "Queries.consensus_exhaustive ~n:2 ~depth:8";
  List.iter
    (fun (point, color) ->
      Format.printf "  %a %s@." Freedom.pp point
        (match color with
        | Figure1.Excluded -> "excluded"
        | Figure1.Not_excluded -> "not_excluded"
        | Figure1.Unknown -> "unknown"))
    (Queries.consensus_exhaustive ~n:2 ~depth:8 ()).Figure1.cells

let tm_dec = function
  | Driver.Schedule p -> Printf.sprintf "S%d" p
  | Driver.Invoke (p, i) ->
      Format.asprintf "I%d(%a)" p Slx_tm.Tm_type.pp_invocation i
  | Driver.Crash p -> Printf.sprintf "C%d" p
  | Driver.Stop -> "stop"

let tm_invoke v p = Some (Slx_tm.Tm_workload.next_invocation v p)

let tl2 () =
  let cmd =
    "Live_explore.search TL2 (1,1) n=2 depth 20 crashes 1 (workload \
     invocations)"
  in
  let r =
    Live_explore.search ~n:2 ~factory:Slx_tm.Tl2_tm.factory ~invoke:tm_invoke
      ~good:Slx_tm.Tm_type.good ~point:Freedom.obstruction_freedom ~depth:20
      ~max_crashes:1 ~dpor:true ()
  in
  Printf.printf "%s\n  %s\n" cmd (verdict tm_dec r.Live_explore.outcome);
  Counters.print counters cmd r.Live_explore.stats

(* The certificate the search once returned for I12 at (1,2), depth
   22, period bound 8, while pumps replayed recorded payloads: its
   cycle re-issues [start] where the workload would not. *)
let i12 () =
  let stem = [ 5; 4; 4; 5; 5; 9; 8; 8; 9; 9; 5; 4; 4; 9; 8; 8 ]
  and cycle = [ 5; 4; 4; 9; 8; 8 ] in
  let codes l = String.concat " " (List.map string_of_int l) in
  Printf.printf
    "Live_explore.validate_cert_codes I12 (1,2) n=2 pump 88 stem [%s] cycle \
     [%s]\n"
    (codes stem) (codes cycle);
  match
    Live_explore.validate_cert_codes ~n:2
      ~factory:(fun () -> Slx_tm.I12.factory ~vars:1)
      ~invoke:tm_invoke ~good:Slx_tm.Tm_type.good
      ~point:(Freedom.make ~l:1 ~k:2) ~pump_ticks:88 ~stem ~cycle ()
  with
  | None -> print_endline "  rejected"
  | Some c -> Printf.printf "  %s\n" (verdict tm_dec (Live_explore.Lasso c))

(* --- counter pins ----------------------------------------------------- *)

(* Deeper register obstruction queries at the default only: their
   counters exercise the suffix cache, the sleep sets and the invoke
   order harder than the sweep does. *)
let pins () =
  List.iter
    (fun (n, depth, crashes) ->
      print
        (command ~impl:"register" ~property:"obstruction" ~n ~depth ~crashes
           ~max_period:(Some 2))
        (run
           (spec ~impl:"register" ~property:"obstruction" ~n ~depth ~crashes
              ~max_period:(Some 2) true)))
    [ (2, 14, 1); (3, 11, 2) ]

let () =
  sweep ();
  live_grid ();
  figure1 ();
  tl2 ();
  i12 ();
  pins ();
  close_out counters
