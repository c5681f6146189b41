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

(* A sampled grid as one row of data.  An adversary run is an active
   set, a driver and a step budget ([Drive]: everyone outside the set
   crashes at time 0), or a report already made ([Report]).  The
   positive runs are [workload active seed] under [Drive] at half the
   grid's budget, for every active set [1..m] with [m] in [sizes] and
   every seed, plus [also_positive]. *)
type ('inv, 'res) run =
  | Drive of Proc.t list * ('inv, 'res) Driver.t * int
  | Report of ('inv, 'res) Run_report.t

type ('inv, 'res) row = {
  title : string;
  factory : ('inv, 'res) Runner.factory;
  safe : ('inv, 'res) History.t -> bool;
  good : 'res -> bool;
  adversary : ('inv, 'res) run list;
  workload : Proc.t list -> int -> ('inv, 'res) Driver.t;
  sizes : int list;
  also_positive : ('inv, 'res) run list;
}

(* Field every run of [row] that fits in [n] processes and classify.
   Adversary runs only count when the implementation kept its safety
   side of the bargain. *)
let sampled ~n ~max_steps ~seeds row =
  let fits = function
    | Drive (active, _, _) -> List.for_all (fun p -> p <= n) active
    | Report _ -> true
  in
  let play = function
    | Drive (active, driver, max_steps) ->
        let crash p = if List.mem p active then None else Some (0, p) in
        let crashes = List.filter_map crash (Proc.all ~n) in
        Runner.run ~n ~factory:row.factory
          ~driver:(Driver.with_crashes crashes driver) ~max_steps ()
    | Report r -> r
  in
  let field runs = List.map play (List.filter fits runs) in
  let sweep =
    List.concat_map
      (fun m ->
        let active = List.init m succ in
        List.map
          (fun seed -> Drive (active, row.workload active seed, max_steps / 2))
          seeds)
      row.sizes
  in
  let adversary =
    List.filter (fun r -> row.safe r.Run_report.history) (field row.adversary)
  in
  let positive = field (sweep @ row.also_positive) in
  {
    name = row.title;
    n;
    cells = classify ~good:row.good ~n ~adversary ~positive;
    adversary_runs = List.length adversary;
    positive_runs = List.length positive;
  }

(* Figure 1a: consensus from registers vs agreement-and-validity, the
   lockstep adversary over processes 1 and 2. *)
let consensus ?(n = 3) ?(max_steps = 1200) ?(seeds = [ 1; 2; 3 ]) () =
  let open Slx_consensus in
  let workload = Consensus_type.propose_forever in
  sampled ~n ~max_steps ~seeds
    {
      title = "Figure 1a: consensus (agreement and validity)";
      factory = Register_consensus.factory ();
      safe = Consensus_safety.check;
      good = Consensus_type.good;
      adversary =
        [ Drive ([ 1; 2 ], Consensus_adversary.lockstep (), max_steps) ];
      workload = (fun procs seed -> Driver.random ~procs ~seed ~workload ());
      sizes = List.init n succ;
      also_positive = [];
    }

(* Figure 1b: TM vs opacity, the AGP TM.  The three-way adversary does
   NOT defeat AGP: its run is positive evidence. *)
let tm ?(n = 3) ?(max_steps = 900) ?(seeds = [ 1; 2; 3 ]) () =
  let open Slx_tm in
  sampled ~n ~max_steps ~seeds
    {
      title = "Figure 1b: TM (opacity)";
      factory = Agp_tm.factory ~vars:1;
      safe = Opacity.check_final;
      good = Tm_type.good;
      adversary =
        [
          Drive ([ 1; 2 ], Tm_adversary.local_progress_adversary (), max_steps);
        ];
      workload = (fun procs seed -> Tm_workload.random ~procs ~seed ());
      sizes = List.init n succ;
      also_positive =
        [
          Drive
            ([ 1; 2; 3 ], Tm_adversary.three_way_adversary (), max_steps / 2);
        ];
    }

(* The Section 5.3 grid: TM vs S', the I(1,2) TM.  The local-progress
   adversary violates the l >= 2 points; the three-way one violates the
   (1, k >= 3) points, because the timestamp rule of S' forces I(1,2) to
   abort all three forever. *)
let s_prime ?(n = 3) ?(max_steps = 900) ?(seeds = [ 1; 2 ]) () =
  let open Slx_tm in
  sampled ~n ~max_steps ~seeds
    {
      title = "Section 5.3: TM (S')";
      factory = I12.factory ~vars:1;
      safe = S_prime.check_final;
      good = Tm_type.good;
      adversary =
        [
          Drive ([ 1; 2 ], Tm_adversary.local_progress_adversary (), max_steps);
          Drive ([ 1; 2; 3 ], Tm_adversary.three_way_adversary (), max_steps);
        ];
      workload = (fun procs seed -> Tm_workload.random ~procs ~seed ());
      sizes = [ 1; 2 ];
      also_positive = [];
    }

(* The mutex grid, the no-trade-off counterpoint: the Bakery lock
   against the starvation scheduler, the best lock adversary we have.
   The classifier keeps only its bounded-fair runs, and against Bakery
   it cannot produce one that starves anybody. *)
let mutex ?(n = 3) ?(max_steps = 1200) ?(seeds = [ 1; 2; 3 ]) () =
  let open Slx_objects in
  let factory = Bakery.factory () in
  sampled ~n ~max_steps ~seeds
    {
      title = "Mutex (mutual exclusion, Bakery lock)";
      factory;
      safe = Mutex.mutual_exclusion;
      good = Mutex.good;
      adversary = [ Report (Mutex.run_starvation ~factory ~max_steps) ];
      workload = (fun procs seed -> Mutex.random_workload ~procs ~seed ());
      sizes = List.init n succ;
      also_positive = [];
    }

(* ------------------------------------------------------------------ *)
(* Analysis and rendering.                                             *)

let color_at grid ~l ~k =
  List.find_map
    (fun (p, c) ->
      if Freedom.l p = l && Freedom.k p = k then Some c else None)
    grid.cells

let colored color grid =
  List.filter_map (fun (p, c) -> if c = color then Some p else None) grid.cells

let strongest_not_excluded grid = Freedom.maximal (colored Not_excluded grid)

let weakest_excluded grid = Freedom.minimal (colored Excluded grid)

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
    "{\"name\": %s, \"n\": %d, \"adversary_runs\": %d, \"positive_runs\": %d, \
     \"cells\": [%s]}"
    (Slx_obs.Json.quote grid.name) grid.n grid.adversary_runs grid.positive_runs
    (String.concat ", " (List.map cell grid.cells))
