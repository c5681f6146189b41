open Slx_base_objects

(* [a.(i)] holds process [i+1]'s phase-1 preference; [b.(i)] holds its
   phase-2 report [(commit_candidate, preference)]. *)
type 'a round = {
  a : 'a option Register.t array;
  b : (bool * 'a) option Register.t array;
}

let make_round n =
  let a = Array.init n (fun _ -> Register.make None) in
  let b = Array.init n (fun _ -> Register.make None) in
  { a; b }

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

let decide ~name ~equal ~n ~max_rounds ~decision ~round ~proc v =
  let rec go r pref =
    if r >= max_rounds then failwith (name ^ ": max_rounds exceeded")
    else
      match Register.read decision with
      | Some w -> w
      | None -> begin
          match commit_adopt ~equal (round r) ~n ~i:proc pref with
          | Commit u ->
              Register.write decision (Some u);
              u
          | Adopt u -> go (r + 1) u
        end
  in
  go 0 v
