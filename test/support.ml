(* Shared helpers for the test suites: a register object type, history
   generators, and Alcotest shortcuts. *)

open Slx_history

(* A single integer read/write register as an object type, used by the
   safety-checker tests. *)
module Register_type = struct
  type state = int
  type invocation = Read | Write of int
  type response = Val of int | Ok

  let name = "register"
  let initial = 0

  let seq inv st =
    match inv with Read -> [ (st, Val st) ] | Write v -> [ (v, Ok) ]

  let good (_ : response) = true
  let equal_state = Int.equal
  let equal_invocation a b = a = b
  let equal_response a b = a = b

  let pp_state = Format.pp_print_int

  let pp_invocation fmt = function
    | Read -> Format.pp_print_string fmt "read"
    | Write v -> Format.fprintf fmt "write(%d)" v

  let pp_response fmt = function
    | Val v -> Format.fprintf fmt "val(%d)" v
    | Ok -> Format.pp_print_string fmt "ok"
end

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual

let quick name f = Alcotest.test_case name `Quick f

let qcheck cases = List.map QCheck_alcotest.to_alcotest cases

(* Generator of well-formed register histories: a random walk that only
   appends legal events. *)
let well_formed_register_history_gen ~n ~len =
  QCheck2.Gen.(
    let* moves = list_size (return len) (pair (int_range 1 n) (int_range 0 5)) in
    let add (h, pending) (p, roll) =
      if Proc.Set.mem p (History.crashed h) then (h, pending)
      else
        match List.assoc_opt p pending with
        | Some inv ->
            (* Pending: respond (usually) or crash (rarely). *)
            if roll = 5 then
              (History.append h (Event.Crash p), List.remove_assoc p pending)
            else
              let res =
                match inv with
                | Register_type.Read -> Register_type.Val roll
                | Register_type.Write _ -> Register_type.Ok
              in
              ( History.append h (Event.Response (p, res)),
                List.remove_assoc p pending )
        | None ->
            let inv =
              if roll mod 2 = 0 then Register_type.Read
              else Register_type.Write roll
            in
            ( History.append h (Event.Invocation (p, inv)),
              (p, inv) :: pending )
    in
    let h, _ = List.fold_left add (History.empty, []) moves in
    return h)

let pp_register_history fmt h =
  History.pp ~pp_inv:Register_type.pp_invocation
    ~pp_res:Register_type.pp_response fmt h

let register_history_print h = Format.asprintf "%a" pp_register_history h
