(* lift_array: a layout goes in as CIF text, a ranked fault list comes
   out.  Only the geometry, extract and defects layers run; nothing is
   simulated.

   One operation is a round of three extractions through the staged
   pipeline at cell-pitch tiles: cold (empty artefact directory, so
   every artefact is written), warm (every artefact read back) and
   incremental (one cell nudged, so exactly one tile per stage is
   recomputed).  The seed picks the nudged cell.  Every extraction is
   checked against the serial Extractor.extract |> Lift.run answer for
   the same mask. *)

open Workload

let tech = Layout.Tech.default

let ranked_text result = Faults.Fault_list.to_string (Defects.Lift.ranked result)

let config ~cache obs =
  {
    Defects.Pipeline.tile_nm = Synth.Layout_synth.cell_pitch_nm;
    domains = 1;
    cache_dir = Some cache;
    obs;
    options = Defects.Lift.default_options;
  }

let computed (c : Defects.Pipeline.counters) =
  c.connectivity.computed + c.sites.computed + c.critical_area.computed

let stages = [ "skeleton"; "tiles"; "connectivity"; "assemble"; "net_digests"; "sites"; "rank" ]

let run p =
  let side = match p.size with Full -> 12 | Tiny -> 3 in
  let rng = Random.State.make [| p.seed |] in
  let cell = (Random.State.int rng side, Random.State.int rng side) in
  let layout ?nudge () =
    Layout.Cif.to_string (Synth.Layout_synth.vco_array ~rows:side ~cols:side ?nudge ())
  in
  let base_cif = layout () and edited_cif = layout ~nudge:cell () in
  let parse = Layout.Cif.of_string ~tech in
  let base = parse base_cif and edited = parse edited_cif in
  let serial mask = Defects.Lift.run (Extract.Extractor.extract mask) in
  let serial_base = serial base and serial_edited = serial edited in
  let want_base = ranked_text serial_base and want_edited = ranked_text serial_edited in
  let devices = float_of_int (4 * side * side) in
  let faults_per_round =
    float_of_int
      ((2 * List.length serial_base.faults) + List.length serial_edited.faults)
  in
  let cache = Filename.concat p.work_dir "stages" in
  let checks = checks () in
  (* One extraction of [mask] over the shared artefact directory. *)
  let phase obs name mask want =
    let (r : Defects.Pipeline.t), dt =
      Util.time (fun () ->
          Obs.span obs "bench.pipeline.run" (fun _ ->
              Defects.Pipeline.run ~config:(config ~cache obs) mask))
    in
    check checks (name ^ " ranked fault list") (ranked_text r.result = want);
    (r, dt)
  in
  let round obs =
    Util.rm_rf cache;
    let _, cold = phase (obs "cold") "cold" base want_base in
    let w, warm = phase (obs "warm") "warm" base want_base in
    let i, incr = phase (obs "incr") "incr" edited want_edited in
    check checks "warm run computes nothing" (computed w.counters = 0);
    check checks "incremental run recomputes one tile per stage" (computed i.counters = 3);
    ([ ("cold", cold); ("warm", warm); ("incr", incr) ], 3.0 *. devices)
  in
  let traced () =
    let obs = Obs.memory () in
    let span name f = Obs.span obs name (fun _ -> f ()) in
    ignore (span "bench.layout.cif_parse" (fun () -> parse base_cif));
    let ext = span "bench.extract.extract" (fun () -> Extract.Extractor.extract base) in
    ignore (span "bench.lift.run" (fun () -> Defects.Lift.run ext));
    (* Each phase records into its own sink, tagged with the phase, so
       both the fold below and the trace file keep the phases apart. *)
    let sinks = List.map (fun ph -> (ph, Obs.memory ())) [ "cold"; "warm"; "incr" ] in
    let gc0 = Gc.quick_stat () in
    let _, traced_s =
      Util.time (fun () ->
          round (fun ph -> Obs.tagged (List.assoc ph sinks) [ ("phase", Obs.Str ph) ]))
    in
    let gc1 = Gc.quick_stat () in
    let cache_bytes = Util.du cache in
    let serial_events = Obs.drain obs in
    let phases = List.map (fun (ph, sink) -> (ph, Obs.drain sink)) sinks in
    let phase ph = summary (List.assoc ph phases) in
    let s = summary serial_events in
    let stage_counts ph what =
      List.fold_left
        (fun acc st -> acc + counter (phase ph) (Printf.sprintf "pipeline.%s.%s" st what))
        0 [ "connectivity"; "sites"; "critical_area" ]
    in
    let layers =
      List.concat_map
        (fun ph ->
          List.map
            (fun st ->
              metric
                (Printf.sprintf "pipeline.%s_s.%s" st ph)
                "s"
                (span_total (phase ph) ("pipeline." ^ st)))
            stages)
        [ "cold"; "incr" ]
      @ [
          count "pipeline.computed.cold" (stage_counts "cold" "computed");
          count "pipeline.computed.incr" (stage_counts "incr" "computed");
          count "pipeline.cached.warm" (stage_counts "warm" "cached");
          metric "pipeline.cache_bytes" "bytes" (float_of_int cache_bytes);
          metric "extract.extract_s" "s" (span_total s "bench.extract.extract");
          metric "lift.run_s" "s" (span_total s "bench.lift.run");
          metric "layout.cif_parse_s" "s" (span_total s "bench.layout.cif_parse");
          metric "gc.alloc_mb_per_fault" "MB/fault" (alloc_mb gc0 gc1 /. faults_per_round);
          count "gc.major_collections" (gc1.major_collections - gc0.major_collections);
        ]
    in
    (layers, traced_s, serial_events @ List.concat_map snd phases)
  in
  let setup () = ignore (parse base_cif) in
  let o = in_process p ~setup ~op:(fun () -> round (fun _ -> Obs.null)) ~traced in
  (* Each phase's median over the untraced rounds. *)
  let phases =
    if not p.trace then []
    else
      List.map
        (fun k -> metric ("extract_" ^ k ^ "_s") "s" (kind_median o.latencies k))
        [ "cold"; "warm"; "incr" ]
  in
  { o with layers = o.layers @ phases; attempted = checks.attempted; failed = checks.failed }
