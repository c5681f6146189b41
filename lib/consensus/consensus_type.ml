module Self = struct
  type invocation = Propose of int
  type response = Decided of int
  type state = int option

  let name = "consensus"
  let initial = None

  let seq (Propose v) = function
    | None -> [ (Some v, Decided v) ]
    | Some w -> [ (Some w, Decided w) ]

  let good (_ : response) = true

  let equal_state = Option.equal Int.equal
  let equal_invocation (Propose v) (Propose w) = Int.equal v w
  let equal_response (Decided v) (Decided w) = Int.equal v w

  let pp_state fmt = function
    | None -> Format.pp_print_string fmt "undecided"
    | Some v -> Format.fprintf fmt "decided(%d)" v

  let pp_invocation fmt (Propose v) = Format.fprintf fmt "propose(%d)" v
  let pp_response fmt (Decided v) = Format.fprintf fmt "%d" v
end

include Self

let tp : (state, invocation, response) Slx_history.Object_type.t =
  (module Self)

let pp_history fmt h =
  Slx_history.History.pp ~pp_inv:pp_invocation ~pp_res:pp_response fmt h

let propose_once = Slx_sim.Driver.n_times 1 (fun p _ -> Propose (p - 1))
let propose_forever = Slx_sim.Driver.forever (fun p -> Propose (p - 1))
