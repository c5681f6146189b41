open Slx_history

type invocation = Ping
type response = Ack

type history = (invocation, response) History.t

type instance = {
  name : string;
  universe : history list;
  impl_traps : (string * history list) list;
}

let equal_history = History.equal ~inv:( = ) ~res:( = )

(* Enumerate the maximal fair histories of the quota policy: each
   process may be invoked (quota + 1) times; the implementation
   responds to the first (quota) invocations and blocks on the last.
   The environment chooses every interleaving of invocations and of the
   (eventually mandatory, by fairness) responses. *)
let traps ~n ~quotas =
  let quotas = Array.of_list quotas in
  if Array.length quotas <> n then invalid_arg "Theorem_4_4.traps";
  (* Per-process state: invocations left, responses left, pending? *)
  let results = ref [] in
  let rec go h invs_left resp_left pending =
    let moves =
      List.concat_map
        (fun p ->
          let i = p - 1 in
          let invoke =
            if (not pending.(i)) && invs_left.(i) > 0 then
              [
                (fun () ->
                  let invs_left = Array.copy invs_left in
                  let pending = Array.copy pending in
                  invs_left.(i) <- invs_left.(i) - 1;
                  pending.(i) <- true;
                  go
                    (History.append h (Event.Invocation (p, Ping)))
                    invs_left resp_left pending);
              ]
            else []
          in
          let respond =
            if pending.(i) && resp_left.(i) > 0 then
              [
                (fun () ->
                  let resp_left = Array.copy resp_left in
                  let pending = Array.copy pending in
                  resp_left.(i) <- resp_left.(i) - 1;
                  pending.(i) <- false;
                  go
                    (History.append h (Event.Response (p, Ack)))
                    invs_left resp_left pending);
              ]
            else []
          in
          invoke @ respond)
        (Proc.all ~n)
    in
    match moves with
    | [] ->
        (* Maximal: every process is blocked pending (fair: the
           implementation enables nothing further). *)
        if not (List.exists (fun h' -> equal_history h h') !results) then
          results := h :: !results
    | _ :: _ -> List.iter (fun move -> move ()) moves
  in
  go History.empty
    (Array.map (fun q -> q + 1) quotas)
    (Array.copy quotas)
    (Array.make n false);
  List.rev !results

let instance_of ~n ~quota_sets =
  let universe =
    List.fold_left
      (fun acc quotas ->
        List.fold_left
          (fun acc h ->
            if List.exists (equal_history h) acc then acc else h :: acc)
          acc (traps ~n ~quotas))
      [] quota_sets
    |> List.rev
  in
  {
    name = Printf.sprintf "%d-process custom instance" n;
    universe;
    impl_traps =
      List.map
        (fun quotas ->
          ( Printf.sprintf "I(%s)"
              (String.concat "," (List.map string_of_int quotas)),
            traps ~n ~quotas ))
        quota_sets;
  }

let positive () =
  {
    name = "1-process, S = at-most-one-response";
    universe = traps ~n:1 ~quotas:[ 0 ] @ traps ~n:1 ~quotas:[ 1 ];
    impl_traps =
      [
        ("I0: never respond", traps ~n:1 ~quotas:[ 0 ]);
        ("I1: respond once", traps ~n:1 ~quotas:[ 1 ]);
      ];
  }

let negative () =
  (* The [1;1] policy is omitted to keep the universe small enough for
     [verify_by_enumeration]; the conclusion (no singleton traps, so
     Gmax = 0) is unchanged by adding implementations. *)
  let quota_sets = [ [ 0; 0 ]; [ 1; 0 ]; [ 0; 1 ] ] in
  {
    (instance_of ~n:2 ~quota_sets) with
    name = "2-process symmetric, S = at-most-one-response-per-process";
  }

(* A set of histories covers the instance if it intersects every
   implementation's trap set. *)
let covers inst set =
  List.for_all
    (fun (_, trap) ->
      List.exists (fun h -> List.exists (equal_history h) set) trap)
    inst.impl_traps

let gmax inst =
  List.filter
    (fun h ->
      List.exists
        (fun (_, trap) ->
          match trap with [ h' ] -> equal_history h h' | [] | _ :: _ -> false)
        inst.impl_traps)
    inst.universe

let gmax_is_adversary_set inst =
  let g = gmax inst in
  g <> [] && covers inst g

let weakest_excluding_exists = gmax_is_adversary_set

let verify_by_enumeration inst =
  let u = Array.of_list inst.universe in
  let size = Array.length u in
  if size > 20 then invalid_arg "Theorem_4_4.verify_by_enumeration: too large";
  (* Intersect all covering subsets of the universe. *)
  let in_all_covering = Array.make size true in
  for mask = 0 to (1 lsl size) - 1 do
    let subset =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) inst.universe
    in
    if subset <> [] && covers inst subset then
      Array.iteri
        (fun i keep ->
          if keep && mask land (1 lsl i) = 0 then in_all_covering.(i) <- false)
        in_all_covering
  done;
  let brute =
    List.filteri (fun i _ -> in_all_covering.(i)) inst.universe
  in
  let fast = gmax inst in
  List.length brute = List.length fast
  && List.for_all (fun h -> List.exists (equal_history h) fast) brute
