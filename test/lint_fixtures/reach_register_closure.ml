(* The reach of the escape family: the same unregistered closure state
   as bad_escape_closure.ml, but the step goes through a base object
   instead of a direct Runtime.atomic or touch, so no rule fires.  Such
   code is only sound because the base object registers and touches its
   own cells.  Parse-only lint fixture; never compiled. *)
let factory ~n:_ =
  let hidden = ref 0 in
  let r = Register.make 0 in
  fun ~proc:_ () ->
    incr hidden;
    Register.write r !hidden
