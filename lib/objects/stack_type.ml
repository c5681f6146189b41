module Self = struct
  type invocation = Push of int | Pop

  type response = Pushed | Popped of int | Empty

  type state = int list

  let name = "stack"
  let initial : state = []

  let seq inv st =
    match inv, st with
    | Push v, _ -> [ (v :: st, Pushed) ]
    | Pop, [] -> [ ([], Empty) ]
    | Pop, x :: rest -> [ (rest, Popped x) ]

  let good (_ : response) = true
  let equal_state = List.equal Int.equal
  let equal_invocation (a : invocation) b = a = b
  let equal_response (a : response) b = a = b

  let pp_state fmt st =
    Format.fprintf fmt "[%s]" (String.concat ";" (List.map string_of_int st))

  let pp_invocation fmt = function
    | Push v -> Format.fprintf fmt "push(%d)" v
    | Pop -> Format.pp_print_string fmt "pop"

  let pp_response fmt = function
    | Pushed -> Format.pp_print_string fmt "ok"
    | Popped v -> Format.fprintf fmt "popped(%d)" v
    | Empty -> Format.pp_print_string fmt "empty"
end

include Self
