(* The two campaign workloads: a deck and a fault list go in as text, a
   detection CSV comes out.

   vco_universe - the paper's VCO with its full schematic fault universe
     at the default working point: dense MNA, MOS devices, Newton-heavy.
   grid_sparse - a resistor grid past the sparse-solver threshold with a
     fixed-stride slice of its universe: linear, so refactorisation and
     fault dropping dominate and there is almost no Newton work.

   The seed only permutes the fault order, so the detection table
   sorted by fault id is the same for every seed and is checked against
   the digests in golden.json. *)

open Workload

type t = {
  name : string;
  deck : string;
  observed : string;
  faults : Faults.Fault.t list;  (** canonical (unpermuted) order *)
  options : Anafault.Campaign.options;
}

let take n xs = List.filteri (fun i _ -> i < n) xs

let vco size =
  let circuit = Vco.Schematic.schematic () in
  let faults = Faults.Universe.build circuit in
  {
    name = "vco_universe";
    deck = Netlist.Printer.deck_to_string ~tran:Vco.Schematic.tran circuit;
    observed = Vco.Schematic.out_node;
    faults = (match size with Full -> faults | Tiny -> take 6 faults);
    options = Anafault.Campaign.default_options;
  }

(* A 16x16 grid has 257 unknowns (sparse backend) and 1474 universe
   faults; 400 of them at a fixed stride keep one campaign near 2 s.
   The paper's 2 V tolerance is sized for a 5 V oscillator; the grid's
   faulty deviations are millivolts, so detection uses 1 mV. *)
let grid size =
  let side, n = match size with Full -> (16, 400) | Tiny -> (5, 12) in
  let circuit = Synth.Circuit_synth.resistor_grid ~rows:side ~cols:side () in
  let universe = Array.of_list (Faults.Universe.build circuit) in
  let stride = Array.length universe / n in
  let tran = { Netlist.Parser.tstep = 1e-7; tstop = 4e-6; uic = false } in
  {
    name = "grid_sparse";
    deck = Netlist.Printer.deck_to_string ~tran circuit;
    observed = Anafault.Simulate.default_observed circuit;
    faults = List.init n (fun i -> universe.(i * stride));
    options =
      {
        Anafault.Campaign.default_options with
        tolerance = { Anafault.Detect.tol_v = 1e-3; tol_t = 0.2e-6 };
      };
  }

let of_name = function
  | "vco_universe" -> Some vco
  | "grid_sparse" -> Some grid
  | _ -> None

let spec ?(options = fun o -> o) t faults =
  {
    Anafault.Campaign.deck = t.deck;
    observed = Some t.observed;
    faults = Faults.Fault_list.to_string faults;
    options = options t.options;
  }

let compile ?obs spec =
  match Anafault.Campaign.compile ?obs spec with
  | Ok c -> c
  | Error e -> Util.fail "campaign does not compile: %s" e

(* The digest the output check compares: the detection CSV with its
   rows sorted, so fault order does not matter. *)
let table_digest results =
  match String.split_on_char '\n' (Anafault.Report.csv_of_results results) with
  | header :: rows ->
    Util.md5_hex
      (String.concat "\n" (header :: List.sort String.compare rows))
  | [] -> Util.md5_hex ""

let size_key = function Full -> "full" | Tiny -> "tiny"

(* The width-1 (per-fault serial) reference digest of a workload. *)
let reference_digest t =
  let c = compile (spec t t.faults ~options:(fun o -> { o with batch = 1 })) in
  table_digest (Anafault.Campaign.run_local c).result.results

let golden_digest t size =
  let key = t.name ^ "." ^ size_key size in
  match Obs.Json.of_string Golden.json with
  | Ok (Obs.Json.Obj fields) -> begin
    match List.assoc_opt key fields with
    | Some (Obs.Json.String d) -> d
    | _ -> Util.fail "golden.json has no digest for %s" key
  end
  | _ -> Util.fail "golden.json is not a JSON object"

(* Journal and cache I/O on a campaign's real results: record every
   result into a fresh journal, replay it, and store/find the result
   JSON in a result cache ten times each. *)
let time_io obs ~dir (compiled : Anafault.Campaign.compiled)
    (result : Anafault.Campaign.result) =
  let span name f = Obs.span obs name (fun _ -> f ()) in
  Util.mkdir_p dir;
  let faults = Array.of_list compiled.faults in
  let path = Filename.concat dir "campaign.journal" in
  let start resume =
    match
      Anafault.Journal.start ~path ~fingerprint:compiled.fingerprint ~resume
        ~faults
    with
    | Ok j -> j
    | Error e -> Util.fail "journal: %s" e
  in
  span "bench.journal.record" (fun () ->
      let j = start false in
      List.iteri (Anafault.Journal.record j) result.results;
      Anafault.Journal.close j);
  let restored =
    span "bench.journal.replay" (fun () ->
        let j = start true in
        let n = Anafault.Journal.restored_count j in
        Anafault.Journal.close j;
        n)
  in
  let cache =
    match Anafaultd.Cache.create ~dir:(Filename.concat dir "cache") () with
    | Ok c -> c
    | Error e -> Util.fail "cache: %s" e
  in
  let json = Anafault.Campaign.result_to_json result in
  let keys = List.init 10 (Printf.sprintf "%s%d" compiled.fingerprint) in
  List.iter
    (fun k ->
      span "bench.cache.store" (fun () -> Anafaultd.Cache.store cache k json))
    keys;
  let found =
    List.filter
      (fun k -> span "bench.cache.find" (fun () -> Anafaultd.Cache.find cache k) <> None)
      keys
  in
  Util.rm_rf dir;
  restored = List.length result.results && List.length found = List.length keys

(* The traced campaign: bench spans around the public calls, the
   program's own spans and counters underneath, folded into the
   per-layer block. *)
let traced p checks ~golden spec () =
  let obs = Obs.memory () in
  let span name f = Obs.span obs name (fun _ -> f ()) in
  let gc0 = Gc.quick_stat () in
  let (compiled, local), traced_s =
    Util.time (fun () ->
        ignore (span "bench.netlist.parse" (fun () -> Netlist.Parser.parse spec.Anafault.Campaign.deck));
        let compiled = span "bench.campaign.compile" (fun () -> compile ~obs spec) in
        let local =
          span "bench.campaign.run_local" (fun () -> Anafault.Campaign.run_local compiled)
        in
        ignore (span "bench.report.csv" (fun () -> Anafault.Report.csv_of_results local.result.results));
        (compiled, local))
  in
  let gc1 = Gc.quick_stat () in
  check checks "traced detection table" (table_digest local.result.results = golden);
  check checks "journal and cache round trip"
    (time_io obs ~dir:(Filename.concat p.work_dir "io") compiled local.result);
  let events = Obs.drain obs in
  let s = summary events in
  let faults = float_of_int (List.length compiled.faults) in
  let c = counter s in
  let cf name = float_of_int (c name) in
  let batch_s = span_total s "anafault.batch" and nominal_s = span_total s "anafault.nominal" in
  let lu_s = sample_total s "engine.lu.seconds_per_solve" in
  let iters = cf "engine.tran.newton_iterations" in
  let acc = cf "engine.tran.accepted_steps" and rej = cf "engine.tran.rejected_steps" in
  let factorisations =
    cf "solver.dense.factor_solve" +. cf "solver.sparse.full_factor" +. cf "solver.sparse.refactor"
  in
  let ms name = 1000.0 *. span_mean s name in
  let layers =
    [
      metric "netlist.parse_s" "s" (span_total s "bench.netlist.parse");
      metric "campaign.compile_s" "s" (span_total s "bench.campaign.compile");
      metric "simulate.nominal_s" "s" nominal_s;
      metric "simulate.faults_s" "s" (batch_s -. nominal_s);
      metric "simulate.drop_frac" "fraction" (ratio (cf "batch.drops") faults);
      count "simulate.retries" (c "anafault.retry" + c "anafault.model_fallback");
      count "engine.newton_iters" (c "engine.tran.newton_iterations");
      metric "engine.newton_per_fault" "iters/fault" (ratio iters faults);
      metric "engine.newton_per_step" "iters/step" (ratio iters (acc +. rej));
      count "engine.accepted_steps" (c "engine.tran.accepted_steps");
      count "engine.rejected_steps" (c "engine.tran.rejected_steps");
      metric "engine.reject_frac" "fraction" (ratio rej (acc +. rej));
      count "engine.dv_clamps" (c "engine.newton.dv_clamp");
      count "engine.newton_failed" (c "engine.newton.failed");
      metric "solver.lu_s" "s" lu_s;
      metric "solver.lu_share" "fraction" (ratio lu_s batch_s);
      count "solver.dense_factor_solves" (c "solver.dense.factor_solve");
      metric "solver.factorisations_per_fault" "1/fault" (ratio factorisations faults);
      count "solver.shared_factorisations" (c "batch.shared_factorisations");
      metric "solver.sparse_fill_in" "count" (sample_mean s "solver.sparse.fill_in");
      count "session.patches" (c "session.patch");
      count "session.patch_overflow" (c "session.patch_overflow");
      count "session.rebuilds" (c "session.rebuild");
      count "session.quarantines" (c "session.quarantine");
      metric "report.csv_s" "s" (span_total s "bench.report.csv");
      metric "journal.record_ms_per_fault" "ms"
        (1000.0 *. ratio (span_total s "bench.journal.record") faults);
      metric "journal.replay_s" "s" (span_total s "bench.journal.replay");
      metric "cache.store_ms" "ms" (ms "bench.cache.store");
      metric "cache.find_ms" "ms" (ms "bench.cache.find");
      metric "gc.alloc_mb_per_fault" "MB/fault" (alloc_mb gc0 gc1 /. faults);
      count "gc.major_collections" (gc1.major_collections - gc0.major_collections);
    ]
  in
  (layers, traced_s, events)

let run p t =
  let rng = Random.State.make [| p.seed |] in
  let spec = spec t (Util.shuffle rng t.faults) in
  let golden = golden_digest t p.size in
  let nfaults = float_of_int (List.length t.faults) in
  let checks = checks () in
  let setup () =
    let c = compile spec in
    ignore (Anafault.Simulate.nominal c.config c.circuit);
    ignore (Anafault.Simulate.session c.config c.circuit)
  in
  (* One operation is the whole user-visible job: deck and fault list
     text in, detection CSV out. *)
  let op () =
    let results, dt =
      Util.time (fun () ->
          let local = Anafault.Campaign.run_local (compile spec) in
          ignore (Anafault.Report.csv_of_results local.result.results);
          local.result.results)
    in
    check checks (t.name ^ " detection table") (table_digest results = golden);
    ([ ("campaign", dt) ], nfaults)
  in
  let o = in_process p ~setup ~op ~traced:(traced p checks ~golden spec) in
  { o with attempted = checks.attempted; failed = checks.failed }
