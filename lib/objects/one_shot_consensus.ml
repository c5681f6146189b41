open Slx_history

module type S = sig
  type 'a t

  val make : n:int -> unit -> 'a t
  val propose : 'a t -> proc:Proc.t -> 'a -> 'a
end

module Cas = Slx_consensus.Cas_consensus

module Registers = struct
  module Commit_adopt = Slx_consensus.Commit_adopt

  type 'a t = 'a Commit_adopt.t

  let make ~n () =
    Commit_adopt.make ~name:"One_shot_consensus.Registers" ~equal:( = ) ~n
      ~max_rounds:4096

  let propose = Commit_adopt.propose
end
