(* Bracketed cursor lifetimes.  [Runner.Cursor.with_] disposes of its
   cursor however the body ends, crashing every process so the
   suspended continuations are discontinued and their fiber stacks
   freed.  Disposal must be invisible to everything an explorer
   counts: these tests check that no process is left suspended, that
   the shared tick counter and probe are untouched by disposal, and
   that both explorers report exactly the counters, digests, witnesses
   and lasso certificates they reported when sibling cursors were
   simply dropped (pinned below). *)

open Slx_history
open Slx_sim
open Slx_core
open Slx_consensus
open Support

(* ------------------------------------------------------------------ *)
(* Exploration summaries, pinned.                                      *)

let one_proposal = Slx_serve.Queries.safety_invoke

let consensus_check = Slx_serve.Queries.check

(* A property that fails only off the leftmost path — on the least run
   in which p2 responds before p1 — so the walk reaches its witness
   through sibling brackets and unwinds all of them. *)
let p1_responds_first r =
  match
    List.find_opt Event.is_response (History.to_list r.Run_report.history)
  with
  | Some e -> Proc.equal (Event.proc e) 1
  | None -> true

let codes script =
  String.concat " " (List.map string_of_int (Explore.codes_of_script script))

let witness (e : _ Explore.exploration) =
  match e.Explore.witness_script with
  | None -> "none"
  | Some s -> codes s

(* Everything a sequential walk reports that disposal could disturb. *)
let summary (e : _ Explore.exploration) =
  let s = e.Explore.stats in
  Printf.sprintf
    "runs=%d nodes=%d steps_executed=%d steps_replayed=%d cache_hits=%d \
     history_digest=%d witness=[%s]"
    s.Explore_stats.runs s.nodes s.steps_executed s.steps_replayed
    s.cache_hits s.history_digest (witness e)

let live_summary (r : _ Live_explore.result) =
  let s = r.Live_explore.stats in
  let verdict =
    match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> "no_fair_cycle"
    | Live_explore.Lasso c ->
        Printf.sprintf "lasso stem=[%s] cycle=[%s]"
          (codes c.Slx_liveness.Lasso.c_stem)
          (codes c.c_cycle)
  in
  Printf.sprintf
    "%s nodes=%d runs=%d steps_executed=%d steps_replayed=%d cache_hits=%d"
    verdict s.Explore_stats.nodes s.runs s.steps_executed s.steps_replayed
    s.cache_hits

let register () = Register_consensus.factory ()
let cas () = Cas_consensus.factory ()
let selfish () = Selfish_consensus.factory ()

let explore ?(symmetry = false) ?(dpor = false) ?(check = consensus_check) ~n
    ~depth ~crashes factory =
  Explore.explore ~n ~factory ~invoke:one_proposal ~depth
    ~max_crashes:crashes ~symmetry ~dpor ~check ()

let live ?(dpor = false) ~l ~k ~n ~depth ~crashes () =
  Live_explore.search ~n
    ~factory:(fun () -> Register_consensus.factory ~max_rounds:(max 8 depth) ())
    ~invoke:Slx_serve.Queries.live_invoke
    ~good:Consensus_type.good
    ~point:(Slx_liveness.Freedom.make ~l ~k)
    ~depth ~max_crashes:crashes ~dpor ()

let cases =
  [
    ( "register n=2 depth=12 c=1 incremental",
      fun () -> summary (explore ~n:2 ~depth:12 ~crashes:1 register) );
    ( "register n=2 depth=12 c=1 dpor+symmetry",
      fun () ->
        summary
          (explore ~symmetry:true ~dpor:true ~n:2 ~depth:12 ~crashes:1 register)
    );
    ( "register n=2 depth=12 c=1 dpor",
      fun () -> summary (explore ~dpor:true ~n:2 ~depth:12 ~crashes:1 register)
    );
    ( "register n=3 depth=10 c=1 dpor",
      fun () -> summary (explore ~dpor:true ~n:3 ~depth:10 ~crashes:1 register)
    );
    ( "register n=3 depth=12 c=1 dpor+symmetry",
      fun () ->
        summary
          (explore ~symmetry:true ~dpor:true ~n:3 ~depth:12 ~crashes:1 register)
    );
    ( "cas n=3 depth=10 c=1 incremental",
      fun () -> summary (explore ~n:3 ~depth:10 ~crashes:1 cas) );
    ( "cas n=3 depth=12 c=2 dpor",
      fun () -> summary (explore ~dpor:true ~n:3 ~depth:12 ~crashes:2 cas) );
    ( "selfish n=3 depth=8 c=0 incremental",
      fun () -> summary (explore ~n:3 ~depth:8 ~crashes:0 selfish) );
    ( "selfish n=3 depth=8 c=1 dpor",
      fun () -> summary (explore ~dpor:true ~n:3 ~depth:8 ~crashes:1 selfish) );
    ( "register n=2 depth=10 c=1 incremental, p1 responds first",
      fun () ->
        summary
          (explore ~check:p1_responds_first ~n:2 ~depth:10 ~crashes:1 register)
    );
    ( "register n=3 depth=12 c=1 dpor, p1 responds first",
      fun () ->
        summary
          (explore ~check:p1_responds_first ~dpor:true ~n:3 ~depth:12
             ~crashes:1 register) );
    ( "cas n=3 depth=10 c=1 incremental, p1 responds first",
      fun () ->
        summary
          (explore ~check:p1_responds_first ~n:3 ~depth:10 ~crashes:1 cas) );
    ( "register n=2 depth=8 c=1 naive",
      fun () ->
        summary
          (Explore.explore_naive ~n:2 ~factory:register ~invoke:one_proposal
             ~depth:8 ~max_crashes:1 ~check:consensus_check ()) );
    ( "cas n=3 depth=10 c=1 dpor",
      fun () -> summary (explore ~dpor:true ~n:3 ~depth:10 ~crashes:1 cas) );
    ( "live (1,1) n=2 depth=8 c=1",
      fun () -> live_summary (live ~l:1 ~k:1 ~n:2 ~depth:8 ~crashes:1 ()) );
    ( "live (1,1) n=2 depth=8 c=1 dpor",
      fun () ->
        live_summary (live ~dpor:true ~l:1 ~k:1 ~n:2 ~depth:8 ~crashes:1 ()) );
    ( "live (1,2) n=2 depth=8 c=0",
      fun () -> live_summary (live ~l:1 ~k:2 ~n:2 ~depth:8 ~crashes:0 ()) );
    ( "live (1,2) n=2 depth=8 c=0 dpor",
      fun () ->
        live_summary (live ~dpor:true ~l:1 ~k:2 ~n:2 ~depth:8 ~crashes:0 ()) );
    ( "live (1,2) n=2 depth=13 c=1",
      fun () -> live_summary (live ~l:1 ~k:2 ~n:2 ~depth:13 ~crashes:1 ()) );
    ( "live (1,1) n=3 depth=7 c=0 dpor",
      fun () ->
        live_summary (live ~dpor:true ~l:1 ~k:1 ~n:3 ~depth:7 ~crashes:0 ()) );
  ]

(* The figures both explorers reported when explorers dropped their
   sibling cursors without disposing of them.  The live searches'
   figures are those of the invoke-ordered walk, which offers only the
   least idle process's invocation at a node, and the crash-bearing
   rows those of the canonical crash placement, which offers a crash
   only right after its process's own decision (or in an ascending
   root prefix); the safety explorer's DPOR rows with a crash budget
   are those of the walk that never builds a dead crash child, and its
   CAS DPOR rows those of sleepers carrying the footprint their step
   observed; the live rows' steps are those of the walk that decides a leaf closing
   no candidate at its parent, rejects a pump its cycle inherited a
   failure for, and pumps a leaf's first candidate on its cursor.  The
   depth-13 row is one where carrying a failure down an edge that does
   not continue its cycle would skip a pump. *)
let pinned =
  [
    ( "register n=2 depth=12 c=1 incremental",
      "runs=7988 nodes=1163 steps_executed=4856 steps_replayed=3758 \
         cache_hits=370 history_digest=383451908255355103 \
         witness=[none]" );
    ( "register n=2 depth=12 c=1 dpor+symmetry",
      "runs=59 nodes=238 steps_executed=498 steps_replayed=281 \
         cache_hits=0 history_digest=-2982070105460766373 \
         witness=[none]" );
    ( "register n=2 depth=12 c=1 dpor",
      "runs=291 nodes=634 steps_executed=1702 steps_replayed=1114 \
         cache_hits=67 history_digest=4378940218313695267 \
         witness=[none]" );
    ( "register n=3 depth=10 c=1 dpor",
      "runs=5524 nodes=6319 steps_executed=24366 steps_replayed=18476 \
         cache_hits=1173 history_digest=-1235349047565120442 \
         witness=[none]" );
    ( "register n=3 depth=12 c=1 dpor+symmetry",
      "runs=461 nodes=1308 steps_executed=4272 steps_replayed=3070 \
         cache_hits=0 history_digest=1524185861423969002 witness=[none]" );
    ( "cas n=3 depth=10 c=1 incremental",
      "runs=7200 nodes=6322 steps_executed=20370 steps_replayed=14427 \
         cache_hits=1368 history_digest=912412462301921865 \
         witness=[none]" );
    ( "cas n=3 depth=12 c=2 dpor",
      "runs=1092 nodes=3854 steps_executed=9544 steps_replayed=6200 \
         cache_hits=216 history_digest=-4068234023158267241 \
         witness=[none]" );
    ( "selfish n=3 depth=8 c=0 incremental",
      "runs=1 nodes=4 steps_executed=3 steps_replayed=0 cache_hits=0 \
         history_digest=1507557541948699408 witness=[5 9 13]" );
    ( "selfish n=3 depth=8 c=1 dpor",
      "runs=1 nodes=5 steps_executed=3 steps_replayed=0 cache_hits=0 \
         history_digest=-2871300880469562023 witness=[5 9 13 14]" );
    ( "register n=2 depth=10 c=1 incremental, p1 responds first",
      "runs=1013 nodes=313 steps_executed=1150 steps_replayed=859 \
         cache_hits=94 history_digest=-4296056499847578302 witness=[5 9 \
         8 8 8 8 8 8 8 8]" );
    ( "register n=3 depth=12 c=1 dpor, p1 responds first",
      "runs=1514 nodes=2754 steps_executed=11740 steps_replayed=9210 \
         cache_hits=301 history_digest=1434439013973821174 witness=[5 9 \
         8 8 8 8 8 8 8 8 8 8]" );
    ( "cas n=3 depth=10 c=1 incremental, p1 responds first",
      "runs=149 nodes=268 steps_executed=775 steps_replayed=530 \
         cache_hits=48 history_digest=-3516427122538861629 witness=[5 4 \
         9 8 8 4 13 12 12 14]" );
    ( "register n=2 depth=8 c=1 naive",
      "runs=766 nodes=1515 steps_executed=10686 steps_replayed=10686 \
         cache_hits=0 history_digest=-1491201430012651329 witness=[none]" );
    ( "cas n=3 depth=10 c=1 dpor",
      "runs=398 nodes=2298 steps_executed=6128 steps_replayed=3906 \
         cache_hits=152 history_digest=-454774887534599141 \
         witness=[none]" );
    ( "live (1,1) n=2 depth=8 c=1",
      "no_fair_cycle nodes=519 runs=257 steps_executed=1601 \
         steps_replayed=768 cache_hits=0" );
    ( "live (1,1) n=2 depth=8 c=1 dpor",
      "no_fair_cycle nodes=233 runs=93 steps_executed=757 \
         steps_replayed=260 cache_hits=0" );
    ( "live (1,2) n=2 depth=8 c=0",
      "lasso stem=[5 4 4 9 8 4] cycle=[8 4] nodes=58 runs=26 \
         steps_executed=157 steps_replayed=75 cache_hits=0" );
    ( "live (1,2) n=2 depth=8 c=0 dpor",
      "lasso stem=[5 4 4 9 8 4] cycle=[8 4] nodes=32 runs=11 \
         steps_executed=85 steps_replayed=30 cache_hits=0" );
    ( "live (1,2) n=2 depth=13 c=1",
      "lasso stem=[5 4 4 4 9 8 8 4] cycle=[8 4] nodes=1780 runs=891 \
         steps_executed=9108 steps_replayed=5134 cache_hits=0" );
    ( "live (1,1) n=3 depth=7 c=0 dpor",
      "no_fair_cycle nodes=183 runs=101 steps_executed=307 \
         steps_replayed=189 cache_hits=0" );
  ]

let test_pinned () =
  List.iter
    (fun (label, run) ->
      Alcotest.(check string) label (List.assoc label pinned) (run ()))
    cases

(* ------------------------------------------------------------------ *)
(* Disposal.                                                           *)

(* Two cas-consensus processes left suspended mid-operation. *)
let two_suspended =
  [
    Driver.Invoke (1, Consensus_type.Propose 0);
    Driver.Invoke (2, Consensus_type.Propose 1);
  ]

let statuses c =
  let view = Runner.Cursor.view c in
  List.map view.Driver.status (Proc.all ~n:view.Driver.n)

(* Runs [with_] and hands back the (deliberately escaped) cursor. *)
let escaped ?prefix ?(body = ignore) () =
  let kept = ref None in
  (try
     Runner.Cursor.with_ ~n:2 ~factory:(cas ()) ?prefix (fun c ->
         kept := Some c;
         body c)
   with Exit | Invalid_argument _ -> ());
  Option.get !kept

let none_ready label c =
  check_bool label true
    (List.for_all (fun s -> s <> Runtime.Ready) (statuses c))

let test_no_cell_ready () =
  none_ready "after a normal return" (escaped ~prefix:two_suspended ());
  none_ready "after the body raises"
    (escaped ~prefix:two_suspended ~body:(fun _ -> raise Exit) ());
  none_ready "after a decision in the body fails"
    (escaped ~prefix:two_suspended
       ~body:(fun c -> Runner.Cursor.apply c (Driver.Crash 3))
       ());
  (* The body saw both processes suspended; disposal crashed them. *)
  let seen = ref [] in
  Runner.Cursor.with_ ~n:2 ~factory:(cas ()) ~prefix:two_suspended (fun c ->
      seen := statuses c);
  check_bool "suspended inside the bracket" true
    (!seen = [ Runtime.Ready; Runtime.Ready ]);
  (* An inapplicable prefix decision raises out of [with_] before the
     body runs. *)
  let kept = ref None in
  (match
     Runner.Cursor.with_ ~n:2 ~factory:(cas ())
       ~prefix:(two_suspended @ [ Driver.Invoke (1, Consensus_type.Propose 0) ])
       (fun c -> kept := Some c)
   with
  | () -> Alcotest.fail "an inapplicable prefix decision must raise"
  | exception Invalid_argument _ -> ());
  check_bool "body not run" true (!kept = None)

(* Disposal moves none of the counters an explorer reads: the shared
   tick counter and the probe's last observation. *)
let test_disposal_is_silent () =
  let ticks = ref 0 in
  let probe = Runtime.make_probe () in
  let observe () =
    (!ticks, Runtime.probe_steps probe, Runtime.probe_last_observed probe)
  in
  let inside =
    Runner.Cursor.with_ ~n:2 ~factory:(register ()) ~ticks ~probe
      ~prefix:
        [
          Driver.Invoke (1, Consensus_type.Propose 0);
          Driver.Schedule 1;
          Driver.Invoke (2, Consensus_type.Propose 1);
          Driver.Schedule 2;
          Driver.Schedule 1;
        ]
      (fun c ->
        check_bool "both processes suspended before disposal" true
          (statuses c = [ Runtime.Ready; Runtime.Ready ]);
        observe ())
  in
  check_int "five decisions ticked" 5 !ticks;
  check_bool "disposal leaves ticks and probe alone" true
    (inside = observe ())

(* ------------------------------------------------------------------ *)
(* Prefix replay.                                                      *)

(* The decisions applicable at [view]: grant a ready process, invoke an
   idle one with a proposal left, crash a live one while [crashes]
   allows. *)
let applicable ~crashes (view : _ Driver.view) =
  let procs = Proc.all ~n:view.Driver.n in
  let live p = view.Driver.status p <> Runtime.Crashed in
  let budget = crashes - List.length (List.filter (fun p -> not (live p)) procs) in
  List.concat_map
    (fun p ->
      let own =
        match view.Driver.status p with
        | Runtime.Ready -> [ Driver.Schedule p ]
        | Runtime.Idle -> (
            match one_proposal view p with
            | Some inv -> [ Driver.Invoke (p, inv) ]
            | None -> [])
        | Runtime.Crashed -> []
      in
      if budget > 0 && live p then own @ [ Driver.Crash p ] else own)
    procs

(* Everything a cursor exposes about its configuration. *)
let observe c =
  ( Runner.Cursor.compact_key c ~extra:[],
    Runner.Cursor.report c (),
    Runner.Cursor.shared_digest c )

(* Walks a cursor by [apply], taking at each step the applicable
   decision [choices] picks (modulo the menu), then replays the script
   it took as a prefix and names each way the replay could differ. *)
let replay_agreement ~factory ~n ~crashes choices =
  Runner.Cursor.with_ ~n ~factory:(factory ()) (fun walked ->
      let script =
        List.fold_left
          (fun rev k ->
            match applicable ~crashes (Runner.Cursor.view walked) with
            | [] -> rev
            | ds ->
                let d = List.nth ds (k mod List.length ds) in
                Runner.Cursor.apply walked d;
                d :: rev)
          [] choices
        |> List.rev
      in
      let expected = observe walked in
      let probe = Runtime.make_probe () in
      Runner.Cursor.with_ ~n ~factory:(factory ()) ~probe ~prefix:script
        (fun c ->
          [
            ("keys, report, digest", observe c = expected);
            ( "shared_digest = shared_digest_full",
              Runner.Cursor.shared_digest c = Runner.Cursor.shared_digest_full c
            );
            ("probe_steps unmoved", Runtime.probe_steps probe = 0);
          ]))

let replay_impls = [ ("register", register); ("cas", cas) ]

let test_replay_equals_apply () =
  List.iter
    (fun (name, factory) ->
      List.iter
        (fun (n, crashes) ->
          for seed = 1 to 6 do
            let rng = Random.State.make [| seed |] in
            let choices = List.init 16 (fun _ -> Random.State.int rng 64) in
            List.iter
              (fun (what, ok) ->
                check_bool
                  (Printf.sprintf "%s n=%d c=%d seed=%d: %s" name n crashes
                     seed what)
                  true ok)
              (replay_agreement ~factory ~n ~crashes choices)
          done)
        [ (2, 0); (2, 1); (3, 0); (3, 1) ])
    replay_impls

let qcheck_replay_equals_apply =
  QCheck2.Test.make ~count:200
    ~name:"with_ ~prefix equals apply on random applicable prefixes"
    QCheck2.Gen.(
      quad (int_range 0 1) (int_range 2 3) (int_range 0 1)
        (list_size (int_range 0 20) (int_range 0 63)))
    (fun (impl, n, crashes, choices) ->
      let factory = snd (List.nth replay_impls impl) in
      List.for_all snd (replay_agreement ~factory ~n ~crashes choices))

let suites =
  [
    ( "cursor release",
      [
        quick "no process is left suspended by with_" test_no_cell_ready;
        quick "disposal ticks, probes and logs nothing"
          test_disposal_is_silent;
        quick "explorers report the pinned figures" test_pinned;
        quick "a replayed prefix equals the applied one"
          test_replay_equals_apply;
      ]
      @ qcheck [ qcheck_replay_equals_apply ] );
  ]
