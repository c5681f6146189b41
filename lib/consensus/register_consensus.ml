open Slx_base_objects

(* One commit-adopt round: two arrays of single-writer registers.
   [a.(i)] holds process [i+1]'s phase-1 preference; [b.(i)] holds its
   phase-2 report [(commit_candidate, preference)]. *)
type round = {
  a : int option Register.t array;
  b : (bool * int) option Register.t array;
}

(* Builds [a] then [b], so inside an id block slot [i] of [a] takes
   offset [i - 1] and slot [i] of [b] offset [n + i - 1]. *)
let make_round n =
  let a = Array.init n (fun _ -> Register.make None) in
  let b = Array.init n (fun _ -> Register.make None) in
  { a; b }

type outcome = Commit of int | Adopt of int

(* The classical two-phase commit-adopt protocol (Gafni 1998):
   CA1  if all participants propose [v], everyone commits [v];
   CA2  if anyone commits [v], everyone commits or adopts [v];
   and it is wait-free. *)
let commit_adopt round ~n ~i v =
  Register.write round.a.(i - 1) (Some v);
  let seen_a =
    List.filter_map
      (fun j -> Register.read round.a.(j))
      (List.init n (fun j -> j))
  in
  let phase1 =
    if List.for_all (Int.equal v) seen_a then (true, v) else (false, v)
  in
  Register.write round.b.(i - 1) (Some phase1);
  let seen_b =
    List.filter_map
      (fun j -> Register.read round.b.(j))
      (List.init n (fun j -> j))
  in
  let trues = List.filter fst seen_b in
  match trues with
  | (_, u) :: _ when List.for_all (fun (f, _) -> f) seen_b -> Commit u
  | (_, u) :: _ -> Adopt u
  | [] -> Adopt v

(* Rounds are built on demand: the first process to enter round [r]
   builds it, inside the instance's id block at an offset fixed by [r],
   between two of its atomic steps.  Construction registers only the
   decision register, whatever [max_rounds] is. *)
let factory ?(max_rounds = 4096) () : _ Slx_sim.Runner.factory =
 fun ~n ->
  let width = 2 * n in
  let ids = Slx_sim.Runtime.reserve_ids (1 + (max_rounds * width)) in
  let decision =
    Slx_sim.Runtime.in_block ids ~offset:0 (fun () -> Register.make None)
  in
  let rounds = Hashtbl.create 8 in
  let round r =
    match Hashtbl.find_opt rounds r with
    | Some rd -> rd
    | None ->
        let rd =
          Slx_sim.Runtime.in_block ids ~offset:(1 + (r * width)) (fun () ->
              make_round n)
        in
        Hashtbl.add rounds r rd;
        rd
  in
  fun ~proc (Consensus_type.Propose v) ->
    let rec go r pref =
      if r >= max_rounds then
        failwith "Register_consensus: max_rounds exceeded"
      else
        match Register.read decision with
        | Some w -> Consensus_type.Decided w
        | None -> begin
            match commit_adopt (round r) ~n ~i:proc pref with
            | Commit u ->
                Register.write decision (Some u);
                Consensus_type.Decided u
            | Adopt u -> go (r + 1) u
          end
    in
    go 0 v
