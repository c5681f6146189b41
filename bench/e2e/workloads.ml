(* The four workloads and their seeded query lists.

   Each workload is a list of strata.  A stratum always contributes the
   same number of queries; its choices (depth, crash budget) are dealt
   out evenly, the seed picks which choices receive the remainder (an
   evenly spaced subset, so the remainder spans the range rather than
   clustering at one end of it), and the seed shuffles the whole list.
   Two seeds therefore run about the same amount of work in a
   different order and mix, which keeps run-to-run spread low while
   still varying the inputs. *)

type stratum = { label : string; count : int; choices : Spec.t list }

let range a b = List.init (b - a + 1) (fun i -> a + i)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let deal rng st =
  let choices = Array.of_list st.choices in
  let m = Array.length choices and r = st.count mod Array.length choices in
  let base = List.concat (List.init (st.count / m) (fun _ -> st.choices)) in
  let offset = Random.State.int rng m in
  base @ List.init r (fun i -> choices.((offset + (i * m / r)) mod m))

let draw ~seed ~salt strata =
  let rng = Random.State.make [| seed; salt |] in
  let qs = Array.of_list (List.concat_map (deal rng) strata) in
  shuffle rng qs;
  Array.to_list qs

(* ------------------------------------------------------------------ *)
(* Strata.                                                             *)

let sweep f ~crashes ~depths =
  List.concat_map (fun c -> List.map (fun d -> f ~crashes:c ~depth:d) depths) crashes

(* The strata are those of the workload catalogue in README.md.  A
   timed run makes several passes over its list, so the CLI lists are
   scaled down to keep a run near 30 s, every stratum by the same
   factor: cli-safety's catalogue counts 30/30/30/10 become 7/7/7/2
   (one query per register depth), and cli-liveness's three strata
   get 10, 10 and 9: each choice once, the five register (1,2) depths
   twice.  A stratum of expensive queries whose count is not a multiple
   of its choices would let the seed move the percentiles by whole
   queries.  lib-safety's four strata get 25 each, 100 queries. *)

(* CLI safety: one fresh `slx explore --json` per query at the CLI
   defaults (n = 2, 4096-round register instances). *)
let cli_safety =
  let ex impl ~crashes ~depth = Spec.explore impl ~n:2 ~depth ~crashes in
  [
    { label = "register c0"; count = 7;
      choices = sweep (ex "register") ~crashes:[ 0 ] ~depths:(range 10 16) };
    { label = "register c1"; count = 7;
      choices = sweep (ex "register") ~crashes:[ 1 ] ~depths:(range 10 16) };
    { label = "cas c0-1"; count = 7;
      choices = sweep (ex "cas") ~crashes:[ 0; 1 ] ~depths:(range 8 14) };
    { label = "selfish"; count = 2;
      choices = sweep (ex "selfish") ~crashes:[ 0 ] ~depths:(range 6 10) };
  ]

(* Library safety: in-process exploration of lean register instances
   ([max_rounds = depth]; the tests and the audit registry build
   few-round instances too, while the CLI and `slx serve` build 4096
   rounds for safety queries), and of CAS, reaching n = 3 and n = 4. *)
let lib_safety =
  let ex impl n ~crashes ~depth =
    let rounds = if impl = "register" then Some depth else None in
    Spec.explore ?rounds impl ~n ~depth ~crashes
  in
  [
    { label = "register n2 c1"; count = 25;
      choices = sweep (ex "register" 2) ~crashes:[ 1 ] ~depths:(range 24 32) };
    { label = "register n3 c1-2"; count = 25;
      choices = sweep (ex "register" 3) ~crashes:[ 1; 2 ] ~depths:(range 14 18) };
    { label = "cas n3 c1-2"; count = 25;
      choices = sweep (ex "cas" 3) ~crashes:[ 1; 2 ] ~depths:(range 12 20) };
    { label = "cas n4 c1"; count = 25;
      choices = sweep (ex "cas" 4) ~crashes:[ 1 ] ~depths:(range 12 14) };
  ]

(* CLI liveness: one fresh `slx live-explore --json` per query.  Three
   strata, two of them with an n = 2 and an n = 3 leg; n = 3 stops at
   depth 10 (CAS n = 3 at depth 13 needs ~600 MB). *)
let cli_liveness =
  let lv impl prop n ~crashes ~depth = Spec.live impl prop ~n ~depth ~crashes in
  [
    { label = "register (1,1)"; count = 10;
      choices =
        sweep (lv "register" "obstruction" 2) ~crashes:[ 1 ] ~depths:(range 10 16)
        @ sweep (lv "register" "obstruction" 3) ~crashes:[ 2 ] ~depths:(range 8 10) };
    { label = "register (1,2)"; count = 10;
      choices = sweep (lv "register" "1,2" 2) ~crashes:[ 0 ] ~depths:(range 8 12) };
    { label = "cas (1,1)"; count = 9;
      choices =
        sweep (lv "cas" "obstruction" 2) ~crashes:[ 1 ] ~depths:(range 10 15)
        @ sweep (lv "cas" "obstruction" 3) ~crashes:[ 1 ] ~depths:(range 8 10) };
  ]

(* ------------------------------------------------------------------ *)
(* The serve session.                                                  *)

type role =
  | Cold
      (** A spec not asked before: computed (or resumed from a shallower
          record of the same configuration) and stored. *)
  | Warm of int  (** Repeats the spec of this earlier item. *)
  | Resume of int  (** Deepens the spec of this earlier item by 2. *)
  | Dedup  (** A new spec sent on both clients at once. *)

type item = { role : role; spec : Spec.t }

(* The session computes 48 specs and deepens each once by 2.  Every
   session computes the same specs in the same order (all of them, then
   all deepenings), so the store grows through the same records
   whatever the seed.  The computed requests are spread evenly among
   the warm reads, ten requests at a time, and each warm read repeats
   one of the least-repeated answered specs, so every spec gets its
   share of reads.  The seed orders each block of ten, picks which of
   the CAS explore specs go out as dedup pairs, and breaks the ties
   between least-repeated specs.  With 200 submissions, 6 of them the
   second half of a dedup pair, the mix is 98 warm reads (49%), 48
   deepenings (24%) and 54 new submissions (27%). *)

(* Twelve configurations drawn from the pool (explore cas/register
   n = 2-3; live register n = 2 obstruction and (1,2); live cas n = 2
   with max_period 4 and pump 40), each asked at four first depths
   [a], [a+1], [a+4], [a+5]: with the deepenings, depths [a] to [a+7],
   each asked once.  Register (1,2) starts at depth 8, the first depth
   at which the lasso exists. *)
let serve_heads =
  let at a (s : Spec.t) = List.map (fun d -> { s with depth = d }) [ a; a + 1; a + 4; a + 5 ] in
  let ex impl n c = at 4 (Spec.explore impl ~n ~depth:0 ~crashes:c) in
  let lv ?max_period ?pump a impl prop c =
    at a (Spec.live ?max_period ?pump impl prop ~n:2 ~depth:0 ~crashes:c)
  in
  let cas_lv = lv ~max_period:4 ~pump:40 4 "cas" "obstruction" in
  List.concat
    [
      ex "cas" 2 0; ex "cas" 2 1; ex "cas" 3 1; ex "cas" 3 2;
      ex "register" 2 0; ex "register" 2 1; ex "register" 3 0;
      lv 4 "register" "obstruction" 1;
      lv 8 "register" "1,2" 0; lv 8 "register" "1,2" 1;
      cas_lv 0; cas_lv 1;
    ]

let serve_submissions = 200
let serve_dedups = 6

let serve_session ~seed =
  let rng = Random.State.make [| seed; 4 |] in
  let nchains = List.length serve_heads in
  (* (chain, spec): every head, then every deepening. *)
  let computed =
    List.mapi (fun c s -> (c, s)) serve_heads
    @ List.mapi (fun c (s : Spec.t) -> (c, { s with depth = s.depth + 2 })) serve_heads
  in
  let cas_heads =
    Array.of_list
      (List.filter_map
         (fun (c, (s : Spec.t)) ->
           if s.kind = Spec.Explore && s.impl = "cas" then Some c else None)
         (List.mapi (fun c s -> (c, s)) serve_heads))
  in
  shuffle rng cas_heads;
  let dedup c = Array.exists (( = ) c) (Array.sub cas_heads 0 serve_dedups) in
  let nslots = serve_submissions - serve_dedups in
  let ncomputed = List.length computed in
  (* Slot i computes iff the even spread of [ncomputed] over [nslots]
     steps there; blocks of ten are then shuffled, except that the very
     first request computes (a warm read needs something to repeat). *)
  let slots =
    Array.init nslots (fun i ->
        (i + 1) * ncomputed / nslots > i * ncomputed / nslots)
  in
  for b = 0 to (nslots - 1) / 10 do
    let lo = 10 * b in
    let block = Array.sub slots lo (min 10 (nslots - lo)) in
    shuffle rng block;
    Array.blit block 0 slots lo (Array.length block)
  done;
  (match Array.find_index Fun.id slots with
  | Some i ->
      slots.(i) <- slots.(0);
      slots.(0) <- true
  | None -> ());
  let items =
    Array.make nslots { role = Cold; spec = List.hd serve_heads }
  in
  let last = Array.make nchains (-1) in
  let repeats = Array.make nslots 0 in
  let queue = ref computed and done_ = ref [] in
  let least_repeated () =
    let fewest =
      List.fold_left (fun a j -> min a repeats.(j)) max_int !done_
    in
    let ties = List.filter (fun j -> repeats.(j) = fewest) !done_ in
    List.nth ties (Random.State.int rng (List.length ties))
  in
  Array.iteri
    (fun i is_computed ->
      items.(i) <-
        (match (is_computed, !queue) with
        | true, (c, spec) :: rest ->
            queue := rest;
            let role =
              if last.(c) >= 0 then Resume last.(c)
              else if dedup c then Dedup
              else Cold
            in
            last.(c) <- i;
            done_ := i :: !done_;
            { role; spec }
        | _ ->
            let j = least_repeated () in
            repeats.(j) <- repeats.(j) + 1;
            { role = Warm j; spec = items.(j).spec }))
    slots;
  Array.to_list items

(* Submissions an item makes (a dedup pair is two). *)
let submissions it = match it.role with Dedup -> 2 | _ -> 1

(* ------------------------------------------------------------------ *)
(* Pinned inputs.                                                      *)

let names = [ "cli-safety"; "lib-safety"; "cli-liveness"; "serve-session" ]

let strata = function
  | "cli-safety" -> cli_safety
  | "lib-safety" -> lib_safety
  | "cli-liveness" -> cli_liveness
  | w -> invalid_arg ("Workloads.strata: " ^ w)

let salt w =
  let rec index i = function
    | [] -> invalid_arg ("unknown workload " ^ w)
    | x :: rest -> if x = w then i else index (i + 1) rest
  in
  index 0 names

let queries ~seed w = draw ~seed ~salt:(salt w) (strata w)

let role_string = function
  | Cold -> "cold"
  | Warm i -> Printf.sprintf "warm #%d" i
  | Resume i -> Printf.sprintf "resume #%d" i
  | Dedup -> "dedup x2"

let dump ~seed w =
  match w with
  | "serve-session" ->
      List.mapi
        (fun i it ->
          Printf.sprintf "%3d %-10s %s" i (role_string it.role)
            (Spec.to_string it.spec))
        (serve_session ~seed)
  | _ ->
      List.mapi
        (fun i s -> Printf.sprintf "%3d %s" i (Spec.to_string s))
        (queries ~seed w)

(* A short digest of the generated list: equal digests on two commits
   show that both ran identical inputs. *)
let digest ~seed w =
  String.sub (Digest.to_hex (Digest.string (String.concat "\n" (dump ~seed w)))) 0 16
