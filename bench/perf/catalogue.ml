(* Every metric the benchmark reports, with its unit and the workloads
   that exercise it.  BENCHMARK.json names the same metrics; the smoke
   test holds the two in step.  A workload reports every metric: one
   whose layer it never enters reads 0, as measured. *)

let campaigns = [ "vco_universe"; "grid_sparse" ]

let lift = [ "lift_array" ]

let daemon = [ "daemon_mix" ]

let all = campaigns @ lift @ daemon

(* name, unit, workloads *)
let end_to_end =
  [
    ("setup_s", "s", all);
    ("throughput_per_s", "1/s", all);
    ("latency_p50_ms", "ms", all);
    ("peak_rss_mb", "MB", all);
  ]

let pipeline_phases =
  List.concat_map
    (fun stage ->
      List.map
        (fun phase -> (Printf.sprintf "pipeline.%s_s.%s" stage phase, "s", lift))
        [ "cold"; "incr" ])
    [ "skeleton"; "tiles"; "connectivity"; "assemble"; "net_digests"; "sites"; "rank" ]

let per_layer =
  [
    ("netlist.parse_s", "s", campaigns);
    ("campaign.compile_s", "s", campaigns);
    ("simulate.nominal_s", "s", campaigns);
    ("simulate.faults_s", "s", campaigns);
    ("simulate.drop_frac", "fraction", campaigns);
    ("simulate.retries", "count", campaigns);
    ("engine.newton_iters", "count", campaigns);
    ("engine.newton_per_fault", "iters/fault", campaigns);
    ("engine.newton_per_step", "iters/step", campaigns);
    ("engine.accepted_steps", "count", campaigns);
    ("engine.rejected_steps", "count", campaigns);
    ("engine.reject_frac", "fraction", campaigns);
    ("engine.dv_clamps", "count", campaigns);
    ("engine.newton_failed", "count", campaigns);
    ("solver.lu_s", "s", campaigns);
    ("solver.lu_share", "fraction", campaigns);
    ("solver.dense_factor_solves", "count", campaigns);
    ("solver.factorisations_per_fault", "1/fault", campaigns);
    ("solver.shared_factorisations", "count", campaigns);
    ("solver.sparse_fill_in", "count", campaigns);
    ("session.patches", "count", campaigns);
    ("session.patch_overflow", "count", campaigns);
    ("session.rebuilds", "count", campaigns);
    ("session.quarantines", "count", campaigns);
    ("report.csv_s", "s", campaigns);
    ("journal.record_ms_per_fault", "ms", campaigns);
    ("journal.replay_s", "s", campaigns);
    ("cache.store_ms", "ms", campaigns);
    ("cache.find_ms", "ms", campaigns);
    ("protocol.ping_ms_p50", "ms", daemon);
    ("daemon.admit_ms_p50", "ms", daemon);
    ("daemon.run_ms_p50", "ms", daemon);
    ("daemon.hit_ratio", "fraction", daemon);
    ("daemon.faults_simulated", "count", daemon);
    ("daemon.coalesced", "count", daemon);
    ("daemon.extract_hits", "count", daemon);
    ("daemon.rejected", "count", daemon);
    ("daemon.cache_bytes", "bytes", daemon);
    ("daemon.wal_bytes", "bytes", daemon);
    ("job_p90_ms", "ms", daemon);
    ("hit_p50_ms", "ms", daemon);
    ("hit_p95_ms", "ms", daemon);
  ]
  @ pipeline_phases
  @ [
      ("pipeline.computed.cold", "count", lift);
      ("pipeline.computed.incr", "count", lift);
      ("pipeline.cached.warm", "count", lift);
      ("pipeline.cache_bytes", "bytes", lift);
      ("extract.extract_s", "s", lift);
      ("lift.run_s", "s", lift);
      ("layout.cif_parse_s", "s", lift);
      ("extract_cold_s", "s", lift);
      ("extract_warm_s", "s", lift);
      ("extract_incr_s", "s", lift);
      ("gc.alloc_mb_per_fault", "MB/fault", all);
      ("gc.major_collections", "count", all);
      ("trace.overhead_frac", "fraction", all);
      ("error_rate", "fraction", all);
    ]

(* [complete catalogue workload ms] lists every catalogue metric in
   catalogue order, taking the workload's value where it reported one
   and 0 otherwise.  A reported metric outside the catalogue, with
   another unit, or missing although the catalogue says the workload
   exercises it, is a bug in the benchmark. *)
let complete catalogue workload (ms : Workload.metric list) =
  List.iter
    (fun (m : Workload.metric) ->
      match List.find_opt (fun (n, _, _) -> n = m.name) catalogue with
      | Some (_, u, _) when u = m.unit -> ()
      | Some (_, u, _) -> Util.fail "metric %s: unit %s, catalogue says %s" m.name m.unit u
      | None -> Util.fail "metric %s is not in the catalogue" m.name)
    ms;
  List.map
    (fun (name, unit, ws) ->
      match List.find_opt (fun (m : Workload.metric) -> m.name = name) ms with
      | Some m -> m
      | None when List.mem workload ws ->
        Util.fail "workload %s did not report %s" workload name
      | None -> Workload.metric name unit 0.0)
    catalogue
