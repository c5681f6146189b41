(* Entry point of the test suite: one Alcotest section per library. *)

let () =
  Alcotest.run "slx"
    (Test_history.suites @ Test_automata.suites @ Test_sim.suites @ Test_drivers.suites @ Test_safety.suites
   @ Test_liveness.suites @ Test_consensus.suites @ Test_tm.suites @ Test_core.suites @ Test_live.suites @ Test_objects.suites @ Test_failures.suites @ Test_universal.suites @ Test_chaos.suites @ Test_differential.suites @ Test_dpor.suites @ Test_footprint.suites @ Test_compact.suites @ Test_obs.suites @ Test_store.suites @ Test_lint.suites @ Test_register_rounds.suites @ Test_serve.suites @ Test_cursor_release.suites @ Test_lazy_ids.suites @ Test_kernel.suites @ Test_model_pins.suites @ Test_figure1_pins.suites)
