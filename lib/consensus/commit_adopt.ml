open Slx_base_objects

(* [a.(i)] holds process [i+1]'s phase-1 preference; [b.(i)] holds its
   phase-2 report [(commit_candidate, preference)]. *)
type 'a round = {
  a : 'a option Register.t array;
  b : (bool * 'a) option Register.t array;
}

type 'a t = {
  name : string;
  equal : 'a -> 'a -> bool;
  n : int;
  max_rounds : int;
  ids : Slx_sim.Runtime.id_block;
  decision : 'a option Register.t;  (* offset 0 *)
  rounds : (int, 'a round) Hashtbl.t;  (* round [r] at offset [1 + r * 2n] *)
}

let make ~name ~equal ~n ~max_rounds =
  let ids = Slx_sim.Runtime.reserve_ids (1 + (max_rounds * 2 * n)) in
  let decision =
    Slx_sim.Runtime.in_block ids ~offset:0 (fun () -> Register.make None)
  in
  { name; equal; n; max_rounds; ids; decision; rounds = Hashtbl.create 8 }

(* Round [r], built by the first process to enter it, between two of
   its steps.  Inside the block slot [i] of its phase-1 array takes
   offset [1 + r * 2n + i - 1] and slot [i] of its phase-2 array
   [1 + r * 2n + n + i - 1]. *)
let round t r =
  match Hashtbl.find_opt t.rounds r with
  | Some rd -> rd
  | None ->
      let rd =
        Slx_sim.Runtime.in_block t.ids ~offset:(1 + (r * 2 * t.n)) (fun () ->
            let a = Array.init t.n (fun _ -> Register.make None) in
            let b = Array.init t.n (fun _ -> Register.make None) in
            { a; b })
      in
      Hashtbl.add t.rounds r rd;
      rd

type 'a outcome = Commit of 'a | Adopt of 'a

(* The classical two-phase commit-adopt protocol (Gafni 1998):
   CA1  if all participants propose [v], everyone commits [v];
   CA2  if anyone commits [v], everyone commits or adopts [v];
   and it is wait-free. *)
let commit_adopt ~equal round ~n ~i v =
  Register.write round.a.(i - 1) (Some v);
  let seen_a =
    List.filter_map
      (fun j -> Register.read round.a.(j))
      (List.init n (fun j -> j))
  in
  let phase1 =
    if List.for_all (equal v) seen_a then (true, v) else (false, v)
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

let propose t ~proc v =
  if not (Slx_history.Proc.is_valid ~n:t.n proc) then
    invalid_arg (t.name ^ ".propose: bad process");
  let rec go r pref =
    if r >= t.max_rounds then failwith (t.name ^ ": max_rounds exceeded")
    else
      match Register.read t.decision with
      | Some w -> w
      | None -> begin
          match
            commit_adopt ~equal:t.equal (round t r) ~n:t.n ~i:proc pref
          with
          | Commit u ->
              Register.write t.decision (Some u);
              u
          | Adopt u -> go (r + 1) u
        end
  in
  go 0 v
