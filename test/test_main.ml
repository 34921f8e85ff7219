let () =
  Alcotest.run "liftsim"
    (Test_geom.suites @ Test_layout.suites @ Test_netlist.suites @ Test_sim.suites
    @ Test_extract.suites @ Test_faults.suites @ Test_defects.suites
    @ Test_pipeline.suites
    @ Test_anafault.suites @ Test_campaign.suites @ Test_extensions.suites
    @ Test_obs.suites @ Test_durable.suites @ Test_vco.suites @ Test_fuzz.suites)
