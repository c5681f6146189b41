open Slx_base_objects

type 'a t = 'a option Cas.t

let make ~n:_ () = Cas.make None

let propose t ~proc:_ v =
  let _won = Cas.compare_and_swap t ~expected:None ~desired:(Some v) in
  match Cas.read t with Some w -> w | None -> assert false

let factory () : _ Slx_sim.Runner.factory =
 fun ~n ->
  let t = make ~n () in
  fun ~proc (Consensus_type.Propose v) ->
    Consensus_type.Decided (propose t ~proc v)
