(* The crash-move map.  The naive explorer offers a crash wherever one
   is enabled; the incremental explorers offer [Crash p] only directly
   after a step or invocation of [p], or in an ascending all-crash
   prefix at the root (Slx_core.Search.menu).  A crash
   writes no shared state and its process takes no decision after it,
   so moving every [Crash p] to just after [p]'s last decision (and the
   crashes of processes that never acted to an ascending root prefix)
   maps each naive run to the canonical representative the incremental
   walks visit.

   Scripts are lists of decision codes
   (Slx_core.Explore.code_of_decision): [(p lsl 2) lor tag], tag 0 a
   step, 1 an invocation, 2 a crash. *)

open Slx_history
open Slx_sim
open Slx_core

let proc code = code lsr 2
let is_crash code = code land 3 = 2
let crash p = (p lsl 2) lor 2

(* The script a report records: one decision per tick, the grant at
   that tick if there is one, else the first event at it (an
   invocation or a crash; a response never opens a tick). *)
let script_of_report (r : _ Run_report.t) =
  let codes = Array.make r.Run_report.total_time (-1) in
  List.iter (fun (t, p) -> codes.(t) <- p lsl 2) r.Run_report.grants;
  List.iteri
    (fun i e ->
      let t = r.Run_report.event_times.(i) in
      if codes.(t) < 0 then
        codes.(t) <-
          (match e with
          | Event.Invocation (p, _) -> (p lsl 2) lor 1
          | Event.Crash p -> crash p
          | Event.Response _ -> invalid_arg "script_of_report: response"))
    (History.to_list r.Run_report.history);
  Array.to_list codes

(* The canonical representative of a script. *)
let canonical codes =
  let last = Hashtbl.create 8 in
  List.iteri
    (fun i c -> if not (is_crash c) then Hashtbl.replace last (proc c) i)
    codes;
  let crashed = List.filter is_crash codes in
  let root =
    List.sort compare
      (List.filter (fun c -> not (Hashtbl.mem last (proc c))) crashed)
  in
  root
  @ List.concat
      (List.mapi
         (fun i c ->
           let p = proc c in
           if is_crash c then []
           else if Hashtbl.find last p = i && List.mem (crash p) crashed then
             [ c; crash p ]
           else [ c ])
         codes)

(* Menu order, the order both walks take: at a node each process has at
   most one step or invocation, all before the crashes, each kind by
   process.  A proper prefix comes first. *)
let rec compare_scripts a b =
  let rank c = (is_crash c, proc c) in
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a, y :: b ->
      let c = compare (rank x) (rank y) in
      if c <> 0 then c else compare_scripts a b

(* The scripts of the maximal runs an exploration checks, in the order
   it checks them.  [explore] is handed the check to run. *)
let visited explore =
  let acc = ref [] in
  explore (fun r ->
      acc := script_of_report r :: !acc;
      true);
  List.rev !acc

let naive_runs ~n ~factory ~invoke ~depth ~max_crashes =
  visited (fun check ->
      ignore
        (Explore.explore_naive ~n ~factory ~invoke ~depth ~max_crashes ~check
           ()))

(* The image of a set of scripts, without repeats, in menu order. *)
let image scripts = List.sort_uniq compare_scripts (List.map canonical scripts)

(* The report of a script replayed on a fresh instance, with the window
   the explorers give a leaf. *)
let replay ~n ~factory ~invoke codes =
  snd (Explore.run_of_codes ~n ~factory ~invoke codes)

(* The least image run [check] rejects.  A run's image has the run's
   length, final configuration and crash count, and each of its
   decisions is enabled where it stands, so it is a maximal naive run
   itself: the image is the set of naive runs that are their own
   canonical form.  The naive walk visits its runs in menu order, so
   the first such run it rejects is the least, and the walk stops
   there. *)
let least_failing ~n ~factory ~invoke ~depth ~max_crashes ~check =
  let found = ref None in
  ignore
    (Explore.explore_naive ~n ~factory ~invoke ~depth ~max_crashes
       ~check:(fun r ->
         check r
         ||
         let x = script_of_report r in
         canonical x <> x
         ||
         (found := Some x;
          false))
       ());
  !found
