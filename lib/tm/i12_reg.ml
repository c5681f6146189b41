let factory ~vars =
  let open Slx_objects in
  I12.with_snapshot ~make:Snapshot_alg.make
    ~update:(fun r proc v -> Snapshot_alg.update r ~proc v)
    ~scan:Snapshot_alg.scan ~vars
