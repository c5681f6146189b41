open Slx_base_objects

type hooks = {
  on_start : proc:Slx_history.Proc.t -> unit;
  may_commit : proc:Slx_history.Proc.t -> bool;
}

(* The state a process keeps between the operations of one
   transaction. *)
type local = {
  mutable in_txn : bool;
  mutable version : int;
  mutable oldval : int list;  (* the values copied from C *)
  mutable values : int array; (* the local working copy *)
}

let with_hooks ~vars ~hooks : _ Slx_sim.Runner.factory =
 fun ~n ->
  let c = Cas.make (1, List.init vars (fun _ -> Tm_type.initial_value)) in
  let hooks = hooks ~n in
  let locals =
    Array.init (n + 1) (fun _ ->
        { in_txn = false; version = 0; oldval = []; values = [||] })
  in
  fun ~proc inv ->
    let st = locals.(proc) in
    match inv with
    | Tm_type.Start ->
        hooks.on_start ~proc;
        let version, oldval = Cas.read c in
        st.version <- version;
        st.oldval <- oldval;
        st.values <- Array.of_list oldval;
        st.in_txn <- true;
        Tm_type.Ok
    | Tm_type.Read x ->
        if st.in_txn && x >= 0 && x < vars then Tm_type.Val st.values.(x)
        else Tm_type.Aborted
    | Tm_type.Write (x, v) ->
        if st.in_txn && x >= 0 && x < vars then begin
          st.values.(x) <- v;
          Tm_type.Ok
        end
        else Tm_type.Aborted
    | Tm_type.Try_commit ->
        if not st.in_txn then Tm_type.Aborted
        else begin
          st.in_txn <- false;
          if not (hooks.may_commit ~proc) then Tm_type.Aborted
          else if
            Cas.compare_and_swap c
              ~expected:(st.version, st.oldval)
              ~desired:(st.version + 1, Array.to_list st.values)
          then Tm_type.Committed
          else Tm_type.Aborted
        end

let factory ~vars =
  with_hooks ~vars ~hooks:(fun ~n:_ ->
      { on_start = (fun ~proc:_ -> ()); may_commit = (fun ~proc:_ -> true) })
