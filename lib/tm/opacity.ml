open Slx_history

let serialization txns =
  Serialize_engine.search ~precedes:Transaction.precedes txns

let serializable txns = Option.is_some (serialization txns)
let check_final h = serializable (Transaction.of_history h)

let check h = List.for_all check_final (History.prefixes h)

let property = Slx_safety.Property.make ~name:"opacity" check
