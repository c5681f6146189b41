module Self = struct
  type invocation = Enqueue of int | Dequeue

  type response = Enqueued | Dequeued of int | Empty

  type state = int list (* front of the queue first *)

  let name = "queue"
  let initial : state = []

  let seq inv st =
    match inv, st with
    | Enqueue v, _ -> [ (st @ [ v ], Enqueued) ]
    | Dequeue, [] -> [ ([], Empty) ]
    | Dequeue, x :: rest -> [ (rest, Dequeued x) ]

  let good (_ : response) = true
  let equal_state = List.equal Int.equal
  let equal_invocation (a : invocation) b = a = b
  let equal_response (a : response) b = a = b

  let pp_state fmt st =
    Format.fprintf fmt "[%s]" (String.concat ";" (List.map string_of_int st))

  let pp_invocation fmt = function
    | Enqueue v -> Format.fprintf fmt "enq(%d)" v
    | Dequeue -> Format.pp_print_string fmt "deq"

  let pp_response fmt = function
    | Enqueued -> Format.pp_print_string fmt "ok"
    | Dequeued v -> Format.fprintf fmt "deq(%d)" v
    | Empty -> Format.pp_print_string fmt "empty"
end

include Self
