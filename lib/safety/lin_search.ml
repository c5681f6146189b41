open Slx_history

let max_ops = 62

type error = Too_many_ops of int

module Make (Tp : Object_type.S) = struct
  type op = (Tp.invocation, Tp.response) Op.t

  let search ~precedes ops =
    let ops = Array.of_list ops in
    let count = Array.length ops in
    if count > max_ops then Error (Too_many_ops count)
    else begin
      let full_complete =
        (* Bitmask of operations that must be linearized. *)
        let mask = ref 0 in
        Array.iteri
          (fun i op -> if Op.is_complete op then mask := !mask lor (1 lsl i))
          ops;
        !mask
      in
      (* Precompute, once, the predecessor bitmask of each operation:
         bit [j] of [preds.(i)] iff [ops.(j)] must be placed before
         [ops.(i)].  [ready] is then two mask tests instead of an O(n)
         scan (with an O(n^2) [precedes] recomputation) per probe. *)
      let preds = Array.make count 0 in
      for i = 0 to count - 1 do
        for j = 0 to count - 1 do
          if j <> i && precedes ops.(j) ops.(i) then
            preds.(i) <- preds.(i) lor (1 lsl j)
        done
      done;
      let visited : (int * Tp.state, unit) Hashtbl.t = Hashtbl.create 256 in
      (* An op is ready when it is unplaced and all its predecessors are
         already placed. *)
      let ready placed i =
        placed land (1 lsl i) = 0 && preds.(i) land placed = preds.(i)
      in
      let rec go placed state acc =
        if placed land full_complete = full_complete then
          (* All completed operations are placed; pending ones may be
             dropped.  Success. *)
          Some (List.rev acc)
        else if Hashtbl.mem visited (placed, state) then None
        else begin
          Hashtbl.add visited (placed, state) ();
          let try_op i =
            if not (ready placed i) then None
            else
              let op = ops.(i) in
              let candidates = Tp.seq op.Op.inv state in
              let matching =
                match op.Op.res with
                | Some res ->
                    List.filter
                      (fun (_, res') -> Tp.equal_response res res')
                      candidates
                | None -> candidates
              in
              List.find_map
                (fun (state', res) ->
                  go
                    (placed lor (1 lsl i))
                    state'
                    ((op.Op.proc, op.Op.inv, res) :: acc))
                matching
          in
          let rec try_from i =
            if i >= count then None
            else match try_op i with Some _ as w -> w | None -> try_from (i + 1)
          in
          try_from 0
        end
      in
      Ok (go 0 Tp.initial [])
    end
end
