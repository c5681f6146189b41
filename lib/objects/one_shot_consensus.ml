open Slx_history

module type S = sig
  type 'a t

  val make : n:int -> unit -> 'a t
  val propose : 'a t -> proc:Proc.t -> 'a -> 'a
end

module Cas = struct
  type 'a t = 'a option Slx_base_objects.Cas.t

  let make ~n:_ () = Slx_base_objects.Cas.make None

  let propose t ~proc:_ v =
    let _won =
      Slx_base_objects.Cas.compare_and_swap t ~expected:None ~desired:(Some v)
    in
    match Slx_base_objects.Cas.read t with
    | Some w -> w
    | None -> assert false
end

module Registers = struct
  module Commit_adopt = Slx_consensus.Commit_adopt

  type 'a t = 'a Commit_adopt.t

  let make ~n () =
    Commit_adopt.make ~name:"One_shot_consensus.Registers" ~equal:( = ) ~n
      ~max_rounds:4096

  let propose = Commit_adopt.propose
end
