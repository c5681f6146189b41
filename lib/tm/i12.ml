let with_snapshot ~make ~update ~scan ~vars =
  Agp_tm.with_hooks ~vars ~hooks:(fun ~n ->
      let r = make ~n 0 in
      let timestamp = Array.make (n + 1) 0 in
      {
        Agp_tm.on_start =
          (fun ~proc ->
            timestamp.(proc) <- timestamp.(proc) + 1;
            update r proc timestamp.(proc));
        may_commit =
          (fun ~proc ->
            let count =
              Array.fold_left
                (fun acc ts -> if ts >= timestamp.(proc) then acc + 1 else acc)
                0 (scan r)
            in
            count < 3);
      })

let factory ~vars =
  let open Slx_base_objects in
  with_snapshot ~make:Snapshot.make ~update:Snapshot.update ~scan:Snapshot.scan
    ~vars
