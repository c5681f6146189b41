(* Figure 1 pins: the exact JSON record of every sampled grid at four
   settings.  A grid's record holds its cell colours and how many
   adversary and positive runs were fielded, so a rewrite of the grid
   builder, of an adversary or of a workload driver that changes a
   colour or drops a run fails here.  At 8 steps every grid has
   [unknown] cells, so a classifier that paints them white fails too. *)

open Slx_core
module Freedom = Slx_liveness.Freedom

let settings =
  [
    ("defaults", fun f -> f ?n:None ?max_steps:None ?seeds:None ());
    ( "n 2, 300 steps, seed 1",
      fun f -> f ?n:(Some 2) ?max_steps:(Some 300) ?seeds:(Some [ 1 ]) () );
    ( "n 4, 600 steps, seeds 1 2",
      fun f -> f ?n:(Some 4) ?max_steps:(Some 600) ?seeds:(Some [ 1; 2 ]) () );
    ( "n 2, 8 steps, seeds 1 2 3",
      fun f -> f ?n:(Some 2) ?max_steps:(Some 8) ?seeds:(Some [ 1; 2; 3 ]) () );
  ]

let grids =
  [
    ("consensus", Figure1.consensus);
    ("tm", Figure1.tm);
    ("s_prime", Figure1.s_prime);
    ("mutex", Figure1.mutex);
  ]

(* (grid and setting, [Figure1.to_json] of it), recorded from the four
   grids as first written. *)
let pins =
  [
    ( "consensus defaults",
      {|{"name": "Figure 1a: consensus (agreement and validity)", "n": 3, "adversary_runs": 1, "positive_runs": 9, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "excluded"}, {"l": 1, "k": 3, "color": "excluded"}, {"l": 2, "k": 2, "color": "excluded"}, {"l": 2, "k": 3, "color": "excluded"}, {"l": 3, "k": 3, "color": "excluded"}]}|} );
    ( "tm defaults",
      {|{"name": "Figure 1b: TM (opacity)", "n": 3, "adversary_runs": 1, "positive_runs": 10, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 1, "k": 3, "color": "not_excluded"}, {"l": 2, "k": 2, "color": "excluded"}, {"l": 2, "k": 3, "color": "excluded"}, {"l": 3, "k": 3, "color": "excluded"}]}|} );
    ( "s_prime defaults",
      {|{"name": "Section 5.3: TM (S')", "n": 3, "adversary_runs": 2, "positive_runs": 4, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 1, "k": 3, "color": "excluded"}, {"l": 2, "k": 2, "color": "excluded"}, {"l": 2, "k": 3, "color": "excluded"}, {"l": 3, "k": 3, "color": "excluded"}]}|} );
    ( "mutex defaults",
      {|{"name": "Mutex (mutual exclusion, Bakery lock)", "n": 3, "adversary_runs": 1, "positive_runs": 9, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 1, "k": 3, "color": "not_excluded"}, {"l": 2, "k": 2, "color": "not_excluded"}, {"l": 2, "k": 3, "color": "not_excluded"}, {"l": 3, "k": 3, "color": "not_excluded"}]}|} );
    ( "consensus n 2, 300 steps, seed 1",
      {|{"name": "Figure 1a: consensus (agreement and validity)", "n": 2, "adversary_runs": 1, "positive_runs": 2, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "excluded"}, {"l": 2, "k": 2, "color": "excluded"}]}|} );
    ( "tm n 2, 300 steps, seed 1",
      {|{"name": "Figure 1b: TM (opacity)", "n": 2, "adversary_runs": 1, "positive_runs": 2, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 2, "k": 2, "color": "excluded"}]}|} );
    ( "s_prime n 2, 300 steps, seed 1",
      {|{"name": "Section 5.3: TM (S')", "n": 2, "adversary_runs": 1, "positive_runs": 2, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 2, "k": 2, "color": "excluded"}]}|} );
    ( "mutex n 2, 300 steps, seed 1",
      {|{"name": "Mutex (mutual exclusion, Bakery lock)", "n": 2, "adversary_runs": 1, "positive_runs": 2, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 2, "k": 2, "color": "not_excluded"}]}|} );
    ( "consensus n 4, 600 steps, seeds 1 2",
      {|{"name": "Figure 1a: consensus (agreement and validity)", "n": 4, "adversary_runs": 1, "positive_runs": 8, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "excluded"}, {"l": 1, "k": 3, "color": "excluded"}, {"l": 1, "k": 4, "color": "excluded"}, {"l": 2, "k": 2, "color": "excluded"}, {"l": 2, "k": 3, "color": "excluded"}, {"l": 2, "k": 4, "color": "excluded"}, {"l": 3, "k": 3, "color": "excluded"}, {"l": 3, "k": 4, "color": "excluded"}, {"l": 4, "k": 4, "color": "excluded"}]}|} );
    ( "tm n 4, 600 steps, seeds 1 2",
      {|{"name": "Figure 1b: TM (opacity)", "n": 4, "adversary_runs": 1, "positive_runs": 9, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 1, "k": 3, "color": "not_excluded"}, {"l": 1, "k": 4, "color": "not_excluded"}, {"l": 2, "k": 2, "color": "excluded"}, {"l": 2, "k": 3, "color": "excluded"}, {"l": 2, "k": 4, "color": "excluded"}, {"l": 3, "k": 3, "color": "excluded"}, {"l": 3, "k": 4, "color": "excluded"}, {"l": 4, "k": 4, "color": "excluded"}]}|} );
    ( "s_prime n 4, 600 steps, seeds 1 2",
      {|{"name": "Section 5.3: TM (S')", "n": 4, "adversary_runs": 2, "positive_runs": 4, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 1, "k": 3, "color": "excluded"}, {"l": 1, "k": 4, "color": "excluded"}, {"l": 2, "k": 2, "color": "excluded"}, {"l": 2, "k": 3, "color": "excluded"}, {"l": 2, "k": 4, "color": "excluded"}, {"l": 3, "k": 3, "color": "excluded"}, {"l": 3, "k": 4, "color": "excluded"}, {"l": 4, "k": 4, "color": "excluded"}]}|} );
    ( "mutex n 4, 600 steps, seeds 1 2",
      {|{"name": "Mutex (mutual exclusion, Bakery lock)", "n": 4, "adversary_runs": 1, "positive_runs": 8, "cells": [{"l": 1, "k": 1, "color": "not_excluded"}, {"l": 1, "k": 2, "color": "not_excluded"}, {"l": 1, "k": 3, "color": "not_excluded"}, {"l": 1, "k": 4, "color": "not_excluded"}, {"l": 2, "k": 2, "color": "not_excluded"}, {"l": 2, "k": 3, "color": "not_excluded"}, {"l": 2, "k": 4, "color": "not_excluded"}, {"l": 3, "k": 3, "color": "not_excluded"}, {"l": 3, "k": 4, "color": "not_excluded"}, {"l": 4, "k": 4, "color": "not_excluded"}]}|} );
    ( "consensus n 2, 8 steps, seeds 1 2 3",
      {|{"name": "Figure 1a: consensus (agreement and validity)", "n": 2, "adversary_runs": 1, "positive_runs": 6, "cells": [{"l": 1, "k": 1, "color": "unknown"}, {"l": 1, "k": 2, "color": "excluded"}, {"l": 2, "k": 2, "color": "excluded"}]}|} );
    ( "tm n 2, 8 steps, seeds 1 2 3",
      {|{"name": "Figure 1b: TM (opacity)", "n": 2, "adversary_runs": 1, "positive_runs": 6, "cells": [{"l": 1, "k": 1, "color": "unknown"}, {"l": 1, "k": 2, "color": "unknown"}, {"l": 2, "k": 2, "color": "unknown"}]}|} );
    ( "s_prime n 2, 8 steps, seeds 1 2 3",
      {|{"name": "Section 5.3: TM (S')", "n": 2, "adversary_runs": 1, "positive_runs": 6, "cells": [{"l": 1, "k": 1, "color": "unknown"}, {"l": 1, "k": 2, "color": "unknown"}, {"l": 2, "k": 2, "color": "unknown"}]}|} );
    ( "mutex n 2, 8 steps, seeds 1 2 3",
      {|{"name": "Mutex (mutual exclusion, Bakery lock)", "n": 2, "adversary_runs": 1, "positive_runs": 6, "cells": [{"l": 1, "k": 1, "color": "unknown"}, {"l": 1, "k": 2, "color": "unknown"}, {"l": 2, "k": 2, "color": "unknown"}]}|} );
  ]

let test_pins () =
  List.iter
    (fun (setting, at) ->
      List.iter
        (fun (grid, f) ->
          let name = grid ^ " " ^ setting in
          match List.assoc_opt name pins with
          | None -> Alcotest.failf "%s: no pin" name
          | Some expected ->
              Alcotest.(check string) name expected (Figure1.to_json (at f)))
        grids)
    settings;
  Support.check_int "every pin names a grid"
    (List.length settings * List.length grids)
    (List.length pins)

(* A run that violates a point violates every point stronger than it
   ([Freedom.stronger_equal]), so a grid is closed upwards: every
   point stronger than an [excluded] cell is [excluded], and every
   point stronger than a cell that is not [not_excluded] is not
   [not_excluded] either. *)
let check_closed_upwards name (g : Figure1.grid) =
  List.iter
    (fun (p, cp) ->
      List.iter
        (fun (q, cq) ->
          let at = Format.asprintf "%s: %a above %a" name Freedom.pp q
              Freedom.pp p in
          if Freedom.stronger_equal q p then begin
            if cp = Figure1.Excluded && cq <> Figure1.Excluded then
              Alcotest.failf "%s is not excluded" at;
            if cp <> Figure1.Not_excluded && cq = Figure1.Not_excluded then
              Alcotest.failf "%s is not_excluded" at
          end)
        g.Figure1.cells)
    g.Figure1.cells

let test_closed_upwards () =
  List.iter
    (fun (setting, at) ->
      List.iter
        (fun (grid, f) -> check_closed_upwards (grid ^ " " ^ setting) (at f))
        grids)
    settings;
  List.iter
    (fun (n, depth) ->
      check_closed_upwards
        (Printf.sprintf "consensus_exhaustive n %d, depth %d" n depth)
        (Slx_serve.Queries.consensus_exhaustive ~n ~depth ()))
    (* n 2 at depth 10 is E20's ledger grid. *)
    [ (2, 8); (2, 10); (3, 8) ]

let suites =
  [
    ( "figure1 pins",
      [
        Support.quick "sampled grids" test_pins;
        Support.quick "every grid is closed upwards" test_closed_upwards;
      ] );
  ]
