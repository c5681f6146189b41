open Slx_history
open Slx_sim
open Slx_liveness

type color = Not_excluded | Excluded | Unknown

type grid = {
  name : string;
  n : int;
  cells : (Freedom.t * color) list;
  adversary_runs : int;
  positive_runs : int;
}

let classify ~good ~n ~adversary ~positive =
  let fair = List.filter Fairness.is_bounded_fair in
  let adversary = fair adversary and positive = fair positive in
  let color point =
    let violates r = not (Freedom.holds ~good r point) in
    if List.exists violates adversary then Excluded
    else if List.exists violates positive then Unknown
    else Not_excluded
  in
  List.map (fun point -> (point, color point)) (Freedom.all ~n)

(* Crash every process outside [active] at time 0, then run [driver]
   over the survivors. *)
let crash_others ~n ~active driver =
  let victims =
    List.filter (fun p -> not (List.mem p active)) (Proc.all ~n)
  in
  Driver.with_crashes (List.map (fun p -> (0, p)) victims) driver

(* ------------------------------------------------------------------ *)
(* Figure 1a: consensus from registers vs agreement-and-validity.      *)

let consensus ?(n = 3) ?(max_steps = 1200) ?(seeds = [ 1; 2; 3 ]) () =
  let open Slx_consensus in
  let factory = Register_consensus.factory () in
  let workload =
    Driver.forever (fun p -> Consensus_type.Propose (p - 1))
  in
  let adversary =
    (* The lockstep adversary over processes 1 and 2, the rest
       crashed. *)
    [
      Runner.run ~n ~factory
        ~driver:(crash_others ~n ~active:[ 1; 2 ] (Consensus_adversary.lockstep ()))
        ~max_steps ();
    ]
  in
  let positive =
    (* Every active-subset size, several seeds. *)
    List.concat_map
      (fun m ->
        let active = List.init m (fun i -> i + 1) in
        List.map
          (fun seed ->
            Runner.run ~n ~factory
              ~driver:
                (crash_others ~n ~active
                   (Driver.random ~procs:active ~seed ~workload ()))
              ~max_steps:(max_steps / 2) ())
          seeds)
      (List.init n (fun i -> i + 1))
  in
  (* Adversary runs only count when the implementation kept its safety
     side of the bargain. *)
  let safe r =
    Consensus_safety.check r.Run_report.history
  in
  let adversary = List.filter safe adversary in
  {
    name = "Figure 1a: consensus (agreement and validity)";
    n;
    cells =
      classify
        ~good:(fun (_ : Consensus_type.response) -> true)
        ~n ~adversary ~positive;
    adversary_runs = List.length adversary;
    positive_runs = List.length positive;
  }

(* The same grid by exhaustive fair-cycle search instead of sampled
   adversary games: every (l,k) point is classified by whether
   {!Live_explore.search} finds a validated fair progress-free lasso in
   the bounded configuration graph.  [max_crashes = n - 1] gives the
   obstruction-style points their solo windows (a blocked-forever
   lockstep partner is unfair unless crashed). *)
let consensus_exhaustive ?(n = 2) ?(depth = 10) () =
  let open Slx_consensus in
  let factory () = Register_consensus.factory () in
  let invoke =
    Explore.workload_invoke
      (Driver.forever (fun p -> Consensus_type.Propose (p - 1)))
  in
  let good (_ : Consensus_type.response) = true in
  let cells =
    List.map
      (fun point ->
        let r =
          Live_explore.search ~n ~factory ~invoke ~good ~point ~depth
            ~max_crashes:(n - 1) ()
        in
        let color =
          match r.Live_explore.outcome with
          | Live_explore.Lasso _ -> Excluded
          | Live_explore.No_fair_cycle -> Not_excluded
        in
        (point, color))
      (Freedom.all ~n)
  in
  {
    name = "Figure 1a (exhaustive): consensus, fair-cycle search";
    n;
    cells;
    adversary_runs = 0;
    positive_runs = 0;
  }

(* ------------------------------------------------------------------ *)
(* Figure 1b: TM vs opacity.                                           *)

let tm ?(n = 3) ?(max_steps = 900) ?(seeds = [ 1; 2; 3 ]) () =
  let open Slx_tm in
  let factory = Agp_tm.factory ~vars:1 in
  let adversary =
    [
      Runner.run ~n ~factory
        ~driver:
          (crash_others ~n ~active:[ 1; 2 ]
             (Tm_adversary.local_progress_adversary ()))
        ~max_steps ();
    ]
  in
  let positive =
    List.concat_map
      (fun m ->
        let active = List.init m (fun i -> i + 1) in
        List.map
          (fun seed ->
            Runner.run ~n ~factory
              ~driver:
                (crash_others ~n ~active
                   (Tm_workload.random ~procs:active ~seed ()))
              ~max_steps:(max_steps / 2) ())
          seeds)
      (List.init n (fun i -> i + 1))
    @
    (* The three-way adversary does NOT defeat AGP: its runs are
       positive evidence for the opacity grid. *)
    if n >= 3 then
      [
        Runner.run ~n ~factory
          ~driver:(crash_others ~n ~active:[ 1; 2; 3 ] (Tm_adversary.three_way_adversary ()))
          ~max_steps:(max_steps / 2) ();
      ]
    else []
  in
  let safe r = Opacity.check_final r.Run_report.history in
  let adversary = List.filter safe adversary in
  {
    name = "Figure 1b: TM (opacity)";
    n;
    cells = classify ~good:Tm_type.good ~n ~adversary ~positive;
    adversary_runs = List.length adversary;
    positive_runs = List.length positive;
  }

(* ------------------------------------------------------------------ *)
(* The Section 5.3 grid: TM vs S'.                                     *)

let s_prime ?(n = 3) ?(max_steps = 900) ?(seeds = [ 1; 2 ]) () =
  let open Slx_tm in
  let factory = I12.factory ~vars:1 in
  let adversary =
    [
      (* Violates the l >= 2 points. *)
      Runner.run ~n ~factory
        ~driver:
          (crash_others ~n ~active:[ 1; 2 ]
             (Tm_adversary.local_progress_adversary ()))
        ~max_steps ();
    ]
    @
    (* Violates the (1, k >= 3) points: the timestamp rule of S'
       forces I(1,2) to abort all three forever. *)
    (if n >= 3 then
       [
         Runner.run ~n ~factory
           ~driver:
             (crash_others ~n ~active:[ 1; 2; 3 ]
                (Tm_adversary.three_way_adversary ()))
           ~max_steps ();
       ]
     else [])
  in
  let positive =
    List.concat_map
      (fun m ->
        let active = List.init m (fun i -> i + 1) in
        List.map
          (fun seed ->
            Runner.run ~n ~factory
              ~driver:
                (crash_others ~n ~active
                   (Tm_workload.random ~procs:active ~seed ()))
              ~max_steps:(max_steps / 2) ())
          seeds)
      [ 1; 2 ]
  in
  let safe r = S_prime.check_final r.Run_report.history in
  let adversary = List.filter safe adversary in
  {
    name = "Section 5.3: TM (S')";
    n;
    cells = classify ~good:Tm_type.good ~n ~adversary ~positive;
    adversary_runs = List.length adversary;
    positive_runs = List.length positive;
  }

(* ------------------------------------------------------------------ *)
(* The mutex grid: the no-trade-off counterpoint.                      *)

let mutex ?(n = 3) ?(max_steps = 1200) ?(seeds = [ 1; 2; 3 ]) () =
  let open Slx_objects in
  let factory = Bakery.factory () in
  let adversary =
    (* The starvation scheduler, the best lock adversary we have: the
       classifier keeps only its bounded-fair runs, and against the
       Bakery lock it cannot produce one that starves anybody. *)
    [ Mutex.run_starvation ~factory ~max_steps ]
  in
  let positive =
    List.concat_map
      (fun m ->
        let active = List.init m (fun i -> i + 1) in
        List.map
          (fun seed ->
            Runner.run ~n ~factory
              ~driver:
                (crash_others ~n ~active
                   (Mutex.random_workload ~procs:active ~seed ()))
              ~max_steps:(max_steps / 2) ())
          seeds)
      (List.init n (fun i -> i + 1))
  in
  let safe r = Mutex.mutual_exclusion r.Run_report.history in
  let adversary = List.filter safe adversary in
  {
    name = "Mutex (mutual exclusion, Bakery lock)";
    n;
    cells = classify ~good:Mutex.good ~n ~adversary ~positive;
    adversary_runs = List.length adversary;
    positive_runs = List.length positive;
  }

(* ------------------------------------------------------------------ *)
(* Analysis and rendering.                                             *)

let color_at grid ~l ~k =
  List.find_map
    (fun (p, c) ->
      if Freedom.l p = l && Freedom.k p = k then Some c else None)
    grid.cells

let whites grid =
  List.filter_map
    (fun (p, c) -> if c = Not_excluded then Some p else None)
    grid.cells

let blacks grid =
  List.filter_map
    (fun (p, c) -> if c = Excluded then Some p else None)
    grid.cells

let strongest_not_excluded grid = Freedom.maximal (whites grid)

let weakest_excluded grid = Freedom.minimal (blacks grid)

let render grid =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (grid.name ^ "\n");
  Buffer.add_string buf "  l\\k";
  for k = 1 to grid.n do
    Buffer.add_string buf (Printf.sprintf " %d" k)
  done;
  Buffer.add_char buf '\n';
  for l = grid.n downto 1 do
    Buffer.add_string buf (Printf.sprintf "  %d  " l);
    for k = 1 to grid.n do
      let cell =
        match color_at grid ~l ~k with
        | Some Not_excluded -> " o"
        | Some Excluded -> " #"
        | Some Unknown -> " ?"
        | None -> "  "
      in
      Buffer.add_string buf cell
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "  (o = does not exclude, # = excludes)\n";
  Buffer.contents buf

let color_name = function
  | Not_excluded -> "not_excluded"
  | Excluded -> "excluded"
  | Unknown -> "unknown"

let to_json grid =
  let cell (p, c) =
    Printf.sprintf "{\"l\": %d, \"k\": %d, \"color\": \"%s\"}" (Freedom.l p)
      (Freedom.k p) (color_name c)
  in
  Printf.sprintf
    "{\"name\": %S, \"n\": %d, \"adversary_runs\": %d, \"positive_runs\": %d, \
     \"cells\": [%s]}"
    grid.name grid.n grid.adversary_runs grid.positive_runs
    (String.concat ", " (List.map cell grid.cells))
