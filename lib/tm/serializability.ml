(* Only transactions that may commit participate; aborted and live
   transactions are invisible to serializability. *)
let committable txns =
  List.filter
    (fun t ->
      match t.Transaction.status with
      | Transaction.Committed | Transaction.Commit_pending -> true
      | Transaction.Aborted | Transaction.Live -> false)
    txns

let strict h =
  let txns = committable (Transaction.of_history h) in
  Option.is_some (Serialize_engine.search ~precedes:Transaction.precedes txns)

let program_order t1 t2 =
  Slx_history.Proc.equal t1.Transaction.proc t2.Transaction.proc
  && t1.Transaction.start_inv < t2.Transaction.start_inv

let plain h =
  let txns = committable (Transaction.of_history h) in
  Option.is_some (Serialize_engine.search ~precedes:program_order txns)
