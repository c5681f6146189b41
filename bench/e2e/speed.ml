(* Host speed, so that timings taken while the host's speed drifts can
   be compared.

   The reference host gives the benchmark two processors of a machine
   shared with other tenants, and their speed is not steady: a fixed
   loop takes up to 1.8 times as long in one stretch of 10-30 s as in
   another, and an slx process slows with it, in user time as much as
   in wall time.  A 30 s run sees one or two such stretches, so raw
   timings of the same code spread by 12-45% from run to run.

   The benchmark therefore samples the host's speed between queries. A
   sample times three fixed kernels of this file on the processor the
   queries run on: a pointer chase through 256 KiB, inserts into a
   512 KiB open-addressing table, and a sum over 8 MiB.  Loops over a
   small working set slow down the way slx does; a chase through 4 MiB
   or more hardly slows at all.  The sample divides each kernel's time
   by its time on the reference host; its slowness is the geometric
   mean of the three ratios: about 1 at the reference host's usual
   speed, 1.5 when everything takes half as long again.  A reported
   timing is its measured time divided by the median slowness of the
   samples next to it.  The kernels allocate nothing and call nothing
   of slx, so a change to the program moves the scaled timings by as
   much as it moves the raw ones. *)

(* A single random cycle through [size] slots: [next.(i)] is the slot
   after [i]. *)
let cycle size =
  let rng = Random.State.make [| size |] in
  let order = Array.init size Fun.id in
  for i = size - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = Array.make size 0 in
  Array.iteri (fun i slot -> next.(slot) <- order.((i + 1) mod size)) order;
  next

let chase next steps () =
  let p = ref 0 in
  for _ = 1 to steps do
    p := Array.unsafe_get next !p
  done;
  ignore (Sys.opaque_identity !p)

let sum a () =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + Array.unsafe_get a i
  done;
  ignore (Sys.opaque_identity !s)

let insert table ops () =
  let mask = Array.length table - 1 in
  Array.fill table 0 (Array.length table) (-1);
  for i = 1 to ops do
    let k = i * 40503 land 0xFFFFF in
    let rec probe h left =
      let v = Array.unsafe_get table h in
      if v <> k && v <> -1 && left > 0 then probe ((h + 1) land mask) (left - 1)
      else Array.unsafe_set table h k
    in
    probe ((k * 0x9E3779B1) lsr 7 land mask) 8
  done

(* Each kernel with its time on the reference host (2 vCPUs, Intel
   Xeon, OCaml 5.1.1), about 1.5 ms each, rounded from medians taken
   in a standalone loop.  Only the ratios between runs matter: these
   constants fix the unit, and changing them would rescale every
   timing. *)
let kernels =
  lazy
    [
      (chase (cycle (32 * 1024)) 200_000, 1.6e-3);
      (insert (Array.make (1 lsl 16) (-1)) 80_000, 1.5e-3);
      (sum (Array.make (1024 * 1024) 1), 1.5e-3);
    ]

(* Run every kernel once untimed: in a forked child, the first writes
   to the table copy its pages. *)
let warm () = List.iter (fun (run, _) -> run ()) (Lazy.force kernels)

let sample () =
  let ks = Lazy.force kernels in
  let log_sum =
    List.fold_left
      (fun acc (run, reference_s) ->
        let t0 = Os.now_s () in
        run ();
        acc +. log ((Os.now_s () -. t0) /. reference_s))
      0. ks
  in
  exp (log_sum /. float_of_int (List.length ks))

(* ------------------------------------------------------------------ *)
(* Samples over a run.                                                 *)

type t = {
  mutable samples : (float * float) list;
      (** (time, slowness), newest first; the time is the sample's
          midpoint on {!Os.now_s}. *)
  mutable spent_s : float;  (** Time spent sampling. *)
  mutable last : float;  (** When the last sample ended. *)
}

let create () =
  ignore (Lazy.force kernels);
  { samples = []; spent_s = 0.; last = neg_infinity }

let take t =
  let t0 = Os.now_s () in
  let s = sample () in
  let t1 = Os.now_s () in
  t.samples <- ((t0 +. t1) /. 2., s) :: t.samples;
  t.spent_s <- t.spent_s +. (t1 -. t0);
  t.last <- t1

(* Between queries: a sample at most every 0.2 s, about 2% of the
   run. *)
let tick t = if Os.now_s () -. t.last >= 0.2 then take t

(* [n] samples on each processor this process may use, for a workload
   whose load spreads over all of them; the affinity is restored
   afterwards. *)
let take_everywhere t n =
  let cpus = Os.affinity () in
  for _ = 1 to n do
    Array.iter
      (fun c ->
        Os.set_affinity [| c |];
        take t)
      cpus
  done;
  Os.set_affinity cpus

(* How many samples on each side of an interval count. *)
let side = 8

(* The slowness to divide the timing of [t0, t1] by: the median of the
   samples inside the interval and the [side] nearest on each side of
   it; 1 without samples. *)
let slowness t ~t0 ~t1 =
  let take_n n xs = List.filteri (fun i _ -> i < n) xs in
  (* [samples] is newest first. *)
  let after = List.rev (List.filter (fun (at, _) -> at > t1) t.samples) in
  let inside = List.filter (fun (at, _) -> at >= t0 && at <= t1) t.samples in
  let before = List.filter (fun (at, _) -> at < t0) t.samples in
  match List.map snd (take_n side before @ inside @ take_n side after) with
  | [] -> 1.
  | xs -> Stat.median xs

let all t = List.rev_map snd t.samples
