(* What every workload runner shares: the passes, the query budget,
   failure notes, latency samples, host-speed samples, and the assembly
   of the result line.

   A timed run executes its query list in [passes] passes.  Every
   execution is checked and every execution's latency is a sample: the
   percentiles are taken over all of them, and [wall_s] is the median
   pass's elapsed time, from its first query submitted to its last
   answered.  Every timing is reported at the reference host's speed
   (see {!Speed}): it is divided by the slowness the host-speed samples
   next to it measured.  The time spent taking those samples is left
   out of the pass's elapsed time. *)

type t = {
  traced : bool;
  coverage_gate : bool;
      (** Whether a traced run whose layer self times miss the engine's
          clock by more than 5% fails, or only says so.  The miss is a
          matter of timing (a pause of the machine outside every span),
          so the smoke test reports it without failing on it. *)
  passes : int;
  started : float;  (** {!Os.now_s} at process start. *)
  budget_s : float;
      (** Queries not started by [started + budget_s] are counted failed,
          so a pathologically slow build still reports within 180 s. *)
  layers : Metrics.acc;
  mutable speed : Speed.t option;  (** Timed runs only. *)
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** Newest first.  Any note fails the run. *)
  mutable remarks : string list;  (** Newest first; printed, not failing. *)
  mutable latencies : (float * float) list;
      (** Every execution: (when it ended, seconds). *)
  mutable walls : (float * float * float) list;
      (** Every pass: (start, end, seconds spent sampling the host). *)
  mutable setups : (float * float) list;  (** Set-up samples, as latencies. *)
}

let query_timeout_s = 120.

(* A traced run is one pass: it reports no end-to-end timings, so it
   takes no host-speed samples either. *)
let create ?(coverage_gate = true) ~traced ~passes () =
  {
    traced;
    coverage_gate;
    passes = (if traced then 1 else passes);
    started = Os.now_s ();
    budget_s = 150.;
    layers = Metrics.acc ();
    speed = (if traced then None else Some (Speed.create ()));
    attempted = 0;
    failed = 0;
    notes = [];
    remarks = [];
    latencies = [];
    walls = [];
    setups = [];
  }

let note t msg = t.notes <- msg :: t.notes

(* Span coverage misses: failures under the gate, remarks otherwise.
   Returns what the caller should still count as a query's problems. *)
let coverage t misses =
  if t.coverage_gate then misses
  else begin
    t.remarks <- List.rev_append misses t.remarks;
    []
  end

let out_of_time t = Os.now_s () -. t.started > t.budget_s

(* Seconds a query may still take. *)
let timeout t =
  Float.max 1. (Float.min query_timeout_s (t.started +. t.budget_s -. Os.now_s ()))

(* A host-speed sample, if one is due: call between queries. *)
let tick t = Option.iter Speed.tick t.speed

(* Samples on every processor, for the serve workload, whose load is
   spread over all of them. *)
let sample_everywhere t = Option.iter (fun sp -> Speed.take_everywhere sp 4) t.speed

(* Record one execution that has just ended: [problem] is [None] when
   its verdict checked out. *)
let answered t ~latency_s problem =
  t.attempted <- t.attempted + 1;
  t.latencies <- (Os.now_s (), latency_s) :: t.latencies;
  match problem with
  | None -> ()
  | Some msg ->
      t.failed <- t.failed + 1;
      note t msg

let skipped t ~count why =
  if count > 0 then begin
    t.attempted <- t.attempted + count;
    t.failed <- t.failed + count;
    note t (Printf.sprintf "%d queries not run: %s" count why)
  end

(* Time one set-up sample. *)
let setup t f =
  tick t;
  let t0 = Os.now_s () in
  let r = f () in
  let t1 = Os.now_s () in
  t.setups <- (t1, t1 -. t0) :: t.setups;
  r

(* Time one pass of [f ()], from its first query to its last. *)
let pass_wall t f =
  let spent () = Option.fold ~none:0. ~some:(fun sp -> sp.Speed.spent_s) t.speed in
  let s0 = spent () and t0 = Os.now_s () in
  let r = f () in
  let t1 = Os.now_s () in
  t.walls <- (t0, t1, spent () -. s0) :: t.walls;
  r

(* Run [one query] over [queries], [t.passes] times, each pass after
   [before ()] (which takes the pass's set-up samples), with a
   host-speed sample before the pass, between queries when one is due,
   and after it.  With [isolated], each pass runs in a forked child
   whose context replaces this one afterwards (the child started from a
   copy of it), so memory a pass leaves behind dies with the child; the
   result is then the largest child peak RSS in KiB. *)
let passes ?(isolated = false) t ~before queries one =
  let late = ref 0 and peak_kb = ref 0 in
  let pass () =
    Option.iter
      (fun sp ->
        Speed.warm ();
        Speed.take sp)
      t.speed;
    before ();
    pass_wall t (fun () ->
        List.iter
          (fun q ->
            if out_of_time t then incr late
            else begin
              tick t;
              one q
            end)
          queries);
    Option.iter Speed.take t.speed
  in
  for _ = 1 to t.passes do
    if not isolated then pass ()
    else
      match Os.in_child (fun () -> pass (); (t, !late)) with
      | Ok ((c, l), kb) ->
          t.attempted <- c.attempted;
          t.failed <- c.failed;
          t.notes <- c.notes;
          t.remarks <- c.remarks;
          t.latencies <- c.latencies;
          t.walls <- c.walls;
          t.setups <- c.setups;
          t.speed <- c.speed;
          Hashtbl.reset t.layers;
          Hashtbl.iter (Hashtbl.replace t.layers) c.layers;
          late := l;
          peak_kb := max !peak_kb kb
      | Error e -> note t ("pass: " ^ e)
  done;
  skipped t ~count:!late "run budget exhausted";
  !peak_kb

(* The end-to-end timings, raw and at reference speed. *)
let timings t =
  let slowness ~t0 ~t1 =
    match t.speed with None -> 1. | Some sp -> Speed.slowness sp ~t0 ~t1
  in
  let scaled (t1, s) = (s, s /. slowness ~t0:(t1 -. s) ~t1) in
  let lat = List.map scaled t.latencies and set = List.map scaled t.setups in
  let walls =
    List.map
      (fun (t0, t1, spent) ->
        let s = t1 -. t0 -. spent in
        (s, s /. slowness ~t0 ~t1))
      t.walls
  in
  let v f pick xs = f (List.map pick xs) in
  let ms xs = List.map (fun s -> 1000. *. s) xs in
  let row pick =
    [
      ("setup_s", v Stat.median pick set);
      ("wall_s", v Stat.median pick walls);
      ("query_p50_ms", Stat.hd_quantile (ms (List.map pick lat)) 0.5);
      ("query_p90_ms", Stat.hd_quantile (ms (List.map pick lat)) 0.9);
    ]
  in
  (row fst, row snd)

let result t ~peak_rss_kb =
  (* Over the whole run, the layers' self times must add up to the
     engines' own clocks within 5% (checked from 1 s of engine time on,
     below which one pause outside every span is more than 5%). *)
  let engine = Metrics.get t.layers "_engine_s" in
  let covered = Metrics.get t.layers "_covered_s" in
  if engine >= 1. && Float.abs (engine -. covered) > 0.05 *. engine then
    List.iter (note t)
      (coverage t
         [ Printf.sprintf "layers cover %.3f s of %.3f s engine time" covered engine ]);
  let metrics =
    if t.traced then Metrics.layer_values t.layers
    else begin
      let raw, scaled = timings t in
      let xs = Option.fold ~none:[] ~some:Speed.all t.speed in
      t.remarks <-
        Printf.sprintf
          "host slowness %.3f (quartiles %.3f-%.3f, %d samples); unscaled: %s"
          (Stat.median xs) (Stat.quantile xs 0.25) (Stat.quantile xs 0.75)
          (List.length xs)
          (String.concat ", "
             (List.map (fun (n, v) -> Printf.sprintf "%s %.6g" n v) raw))
        :: t.remarks;
      let v = function
        | "peak_rss_mb" -> float_of_int peak_rss_kb /. 1024.
        | m -> List.assoc m scaled
      in
      List.map
        (fun (e : Metrics.e2e) -> (e.name, e.unit_, v e.name))
        Metrics.end_to_end
    end
  in
  {
    Metrics.correct = t.failed = 0 && t.notes = [];
    attempted = max 1 t.attempted;
    failed = t.failed;
    metrics;
  }
