(* Ablations of the design choices DESIGN.md calls out:
   - integration method (backward Euler vs trapezoidal) on the VCO;
   - defect-size density (1/x^3 vs uniform) on LIFT's ranking;
   - detection tolerances on the coverage curve;
   - parallel fault simulation over 1..8 domains. *)

let integration () =
  Helpers.banner "Ablation - integration method on the nominal VCO";
  Printf.printf "%-18s %8s %8s %10s %8s\n" "method" "edges" "f [MHz]" "steps"
    "rejects";
  List.iter
    (fun (label, integration) ->
      let options = { Sim.Engine.default_options with integration } in
      let result =
        Sim.Engine.run ~options (Cat.Demo.schematic ())
          (Sim.Engine.Analysis.Tran
             {
               tstep = Helpers.tran.Netlist.Parser.tstep;
               tstop = Helpers.tran.Netlist.Parser.tstop;
               uic = true;
             })
      in
      let wf = Sim.Engine.Analysis.waveform result
      and stats = Sim.Engine.Analysis.stats result in
      Printf.printf "%-18s %8d %8.2f %10d %8d\n" label (Helpers.count_edges wf)
        (Helpers.frequency_mhz wf) stats.Sim.Engine.accepted_steps
        stats.Sim.Engine.rejected_steps)
    [ ("backward-euler", Sim.Engine.Backward_euler);
      ("trapezoidal", Sim.Engine.Trapezoidal) ];
  Printf.printf
    "(backward Euler is the tool default: its damping settles the metastable\n\
     states fault injection creates; trapezoidal rings on them)\n"

let size_pdf () =
  Helpers.banner "Ablation - defect-size density and fault ranking";
  let ext = (Lazy.force Helpers.glrfm).Cat.extraction in
  let tech = Layout.Tech.default in
  let uniform =
    Geom.Critical_area.Uniform
      { x_min = float_of_int tech.Layout.Tech.defect_x_min;
        x_max = float_of_int tech.Layout.Tech.defect_x_max }
  in
  let top options =
    let r = Defects.Lift.run ~options ext in
    List.filteri (fun i _ -> i < 10) (Defects.Lift.ranked r)
    |> List.map (fun (f : Faults.Fault.t) -> Faults.Fault.to_string f)
  in
  let cubic_top = top Defects.Lift.default_options in
  let uniform_top =
    top { Defects.Lift.default_options with pdf = Some uniform; p_min = 0.0 }
  in
  Printf.printf "top-10 faults, 1/x^3 density:\n";
  List.iter (fun f -> Printf.printf "  %s\n" f) cubic_top;
  Printf.printf "top-10 faults, uniform density:\n";
  List.iter (fun f -> Printf.printf "  %s\n" f) uniform_top;
  let key s = List.nth (String.split_on_char ' ' s) 0 in
  let overlap =
    List.length
      (List.filter (fun f -> List.mem (key f) (List.map key uniform_top)) cubic_top)
  in
  Printf.printf "rank overlap: %d/10 (the uniform density inflates large-defect\n\
                 mechanisms, reshuffling the tail)\n" overlap

let tolerance (run_paper : Anafault.Simulate.run) =
  Helpers.banner "Ablation - detection tolerance";
  Printf.printf "%-22s %10s %12s\n" "tolerance" "coverage" "t(final)";
  let show label (r : Anafault.Simulate.run) =
    let final = Anafault.Coverage.final_percent r in
    let t =
      match Anafault.Coverage.time_to_percent r final with
      | Some t -> Printf.sprintf "%4.0f%%" (100.0 *. t /. 4e-6)
      | None -> "never"
    in
    Printf.printf "%-22s %9.1f%% %12s\n" label final t
  in
  show "2 V / 0.2 us (paper)" run_paper;
  List.iter
    (fun (label, tol_v, tol_t) ->
      let config =
        { Cat.Demo.config with
          Anafault.Simulate.tolerance = { Anafault.Detect.tol_v; tol_t };
          domains = 8 }
      in
      let r =
        Cat.run_fault_simulation config (Cat.Demo.schematic ())
          (Helpers.lift_faults ())
      in
      show label r)
    [ ("0.5 V / 0.2 us", 0.5, 0.2e-6); ("2 V / 0.05 us", 2.0, 0.05e-6) ];
  Printf.printf "(tighter amplitude tolerance catches the marginal contention\n\
                 faults; the time tolerance mainly shifts first-detection times)\n"

let domains () =
  Helpers.banner "Ablation - parallel fault simulation (paper: cluster AnaFAULT)";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "machine exposes %d core(s); Parsim clamps domain counts to that.\n"
    cores;
  if cores <= 1 then
    Printf.printf
      "single-core machine: the sweep would only measure scheduling noise -\n\
       skipped.  (Parsim's serial-equivalence is covered by the test suite.)\n"
  else begin
    let faults = Helpers.lift_faults () in
    Printf.printf "%-10s %10s %9s\n" "domains" "wall [s]" "speedup";
    let base = ref 0.0 in
    List.iter
      (fun d ->
        if d <= cores then begin
          let t0 = Unix.gettimeofday () in
          let _ =
            Cat.run_fault_simulation
              { Cat.Demo.config with Anafault.Simulate.domains = d }
              (Cat.Demo.schematic ()) faults
          in
          let t = Unix.gettimeofday () -. t0 in
          if d = 1 then base := t;
          Printf.printf "%-10d %10.1f %8.1fx\n" d t (!base /. t)
        end)
      [ 1; 2; 4; 8 ]
  end

let run run_paper =
  integration ();
  size_pdf ();
  tolerance run_paper;
  domains ()
