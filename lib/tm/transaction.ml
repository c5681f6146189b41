open Slx_history

type status = Committed | Aborted | Commit_pending | Live

type op = Read_op of Tm_type.var * int | Write_op of Tm_type.var * int

type t = {
  proc : Proc.t;
  index : int;
  start_inv : int;
  start_res : int option;
  finished : int option;
  tryc_inv : int option;
  ops : op list;
  status : status;
}

(* Per-process parser state: the transaction being built, if any, plus
   the invocation awaiting its response. *)
type building = {
  b_index : int;
  b_start_inv : int;
  mutable b_start_res : int option;
  mutable b_tryc_inv : int option;
  mutable b_rev_ops : op list;
  mutable b_pending : (int * Tm_type.invocation) option;
}

let of_history h =
  let finished_txns = ref [] in
  let building : (Proc.t, building) Hashtbl.t = Hashtbl.create 8 in
  let next_index : (Proc.t, int) Hashtbl.t = Hashtbl.create 8 in
  let close p b ~finished ~status =
    Hashtbl.remove building p;
    finished_txns :=
      {
        proc = p;
        index = b.b_index;
        start_inv = b.b_start_inv;
        start_res = b.b_start_res;
        finished;
        tryc_inv = b.b_tryc_inv;
        ops = List.rev b.b_rev_ops;
        status;
      }
      :: !finished_txns
  in
  let handle i e =
    match e with
    | Event.Invocation (p, inv) -> begin
        match Hashtbl.find_opt building p, inv with
        | None, Tm_type.Start ->
            let index =
              Option.value (Hashtbl.find_opt next_index p) ~default:1
            in
            Hashtbl.replace next_index p (index + 1);
            Hashtbl.replace building p
              {
                b_index = index;
                b_start_inv = i;
                b_start_res = None;
                b_tryc_inv = None;
                b_rev_ops = [];
                b_pending = Some (i, Tm_type.Start);
              }
        | None, (Tm_type.Read _ | Tm_type.Write _ | Tm_type.Try_commit) ->
            (* An operation outside a transaction: ignored. *)
            ()
        | Some b, inv ->
            if inv = Tm_type.Try_commit then b.b_tryc_inv <- Some i;
            b.b_pending <- Some (i, inv)
      end
    | Event.Response (p, res) -> begin
        match Hashtbl.find_opt building p with
        | None -> ()
        | Some b -> begin
            let pending = b.b_pending in
            b.b_pending <- None;
            match res, pending with
            | Tm_type.Aborted, _ -> close p b ~finished:(Some i) ~status:Aborted
            | Tm_type.Committed, _ ->
                close p b ~finished:(Some i) ~status:Committed
            | Tm_type.Ok, Some (_, Tm_type.Start) -> b.b_start_res <- Some i
            | Tm_type.Ok, Some (_, Tm_type.Write (x, v)) ->
                b.b_rev_ops <- Write_op (x, v) :: b.b_rev_ops
            | Tm_type.Val v, Some (_, Tm_type.Read x) ->
                b.b_rev_ops <- Read_op (x, v) :: b.b_rev_ops
            | (Tm_type.Ok | Tm_type.Val _), _ ->
                (* A response not matching the pending invocation:
                   ill-formed protocol use; ignored. *)
                ()
          end
      end
    | Event.Crash _ -> ()
  in
  List.iteri handle (History.to_list h);
  let open_txns =
    Hashtbl.fold
      (fun p b acc ->
        {
          proc = p;
          index = b.b_index;
          start_inv = b.b_start_inv;
          start_res = b.b_start_res;
          finished = None;
          tryc_inv = b.b_tryc_inv;
          ops = List.rev b.b_rev_ops;
          status = (if b.b_tryc_inv <> None then Commit_pending else Live);
        }
        :: acc)
      building []
  in
  List.sort
    (fun t1 t2 -> Int.compare t1.start_inv t2.start_inv)
    (!finished_txns @ open_txns)

let same t1 t2 = Proc.equal t1.proc t2.proc && t1.index = t2.index

let precedes t1 t2 =
  match t1.finished with None -> false | Some f -> f < t2.start_inv

let concurrent t1 t2 = (not (precedes t1 t2)) && not (precedes t2 t1)

let writes t =
  List.fold_left
    (fun acc op ->
      match op with
      | Write_op (x, v) -> (x, v) :: List.remove_assoc x acc
      | Read_op _ -> acc)
    [] t.ops
  |> List.sort (fun (x, _) (y, _) -> Int.compare x y)

let pp fmt t =
  let status_str =
    match t.status with
    | Committed -> "C"
    | Aborted -> "A"
    | Commit_pending -> "tryC?"
    | Live -> "live"
  in
  Format.fprintf fmt "T(%a,#%d,%s)" Proc.pp t.proc t.index status_str
