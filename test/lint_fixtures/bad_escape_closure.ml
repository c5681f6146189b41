(* escape-unregistered-state: a ref captured by a runtime-interacting
   step closure with no registration in scope.  Parse-only lint
   fixture; never compiled. *)
let factory ~n:_ =
  let hidden = ref 0 in
  fun ~proc:_ () ->
    Runtime.atomic (fun () ->
        incr hidden;
        Runtime.touch ~obj:0 ~write:true)
