open Slx_base_objects

let factory ~vars =
  Agp_tm.with_hooks ~vars ~hooks:(fun ~n:_ ->
      (* The last process to have started a transaction; anyone else's
         commit attempt is aborted. *)
      let writer = Register.make 0 in
      {
        Agp_tm.on_start = (fun ~proc -> Register.write writer proc);
        may_commit = (fun ~proc -> Int.equal (Register.read writer) proc);
      })
