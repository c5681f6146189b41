(* Order statistics, computed as Python's [statistics.quantiles] does
   with its default (exclusive) method, so the spreads printed here are
   the ones an outside checker computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Empty samples read 0, so a run where every query failed still prints
   valid JSON (and says so through "failed").

   The [p]-quantile, 0 < p < 1: position p * (n + 1), clamped to the
   first and last gaps, linearly interpolated. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n = 1 then a.(0)
  else
    let h = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (truncate h)) in
    let frac = Float.min 1. (Float.max 0. (h -. float_of_int j)) in
    a.(j - 1) +. (frac *. (a.(j) -. a.(j - 1)))

(* The Harrell-Davis estimate of the [p]-quantile, 0 < p < 1: the mean
   of the order statistics, the i-th of n weighted by the mass that
   Beta(p (n + 1), (1 - p) (n + 1)) puts on ((i - 1) / n, i / n].  A
   query list mixes shapes whose latencies lie far apart, so the
   latencies come in clusters with gaps between them; a plain quantile
   jumps across a gap when noise reorders the samples next to it,
   while this estimate moves smoothly.  The masses are integrated by
   the midpoint rule, [steps] points per interval. *)
let hd_quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 1 then quantile xs p
  else begin
    let alpha = p *. float_of_int (n + 1) and beta = (1. -. p) *. float_of_int (n + 1) in
    let steps = 16 in
    let points = n * steps in
    let log_density j =
      let x = (float_of_int j +. 0.5) /. float_of_int points in
      ((alpha -. 1.) *. log x) +. ((beta -. 1.) *. Float.log1p (-.x))
    in
    let logs = Array.init points log_density in
    let top = Array.fold_left Float.max neg_infinity logs in
    let total = ref 0. and weighted = ref 0. in
    Array.iteri
      (fun j l ->
        let w = exp (l -. top) in
        total := !total +. w;
        weighted := !weighted +. (w *. a.(j / steps)))
      logs;
    !weighted /. !total
  end

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Interquartile range as a share of the median. *)
let spread xs =
  let m = median xs in
  if List.length xs < 2 || m = 0. then 0.
  else (quantile xs 0.75 -. quantile xs 0.25) /. Float.abs m
