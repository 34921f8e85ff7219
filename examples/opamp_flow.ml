(* A second demonstrator through the complete CAT flow: a two-stage
   Miller opamp in unity-gain configuration.  The layout is synthesised
   from the schematic by the row-floorplan generator, so the whole
   layout-driven pipeline (DRC, extraction, LVS, LIFT, fault simulation)
   runs on a circuit the paper never saw - showing the tool is not
   VCO-shaped.

   dune exec examples/opamp_flow.exe *)

let deck =
  {|two-stage miller opamp, unity gain
VDD vdd 0 5
VINP inp 0 PULSE(2 3 0.2u 10n 10n 2u 4u)
IB bias 0 DC 20u
* bias chain and tail
M8 bias bias vdd vdd PM W=20u L=2u
M5 tail bias vdd vdd PM W=40u L=2u
* pmos input pair, nmos mirror load; the inverting input follows out
M1 x1 out tail vdd PM W=40u L=2u
M2 out1 inp tail vdd PM W=40u L=2u
M3 x1 x1 0 0 NM W=20u L=2u
M4 out1 x1 0 0 NM W=20u L=2u
* second stage with miller compensation
M6 out out1 0 0 NM W=60u L=1u
M7 out bias vdd vdd PM W=60u L=2u
CC out1 out 2p
CL out 0 5p
.model NM NMOS VTO=0.8 KP=60u LAMBDA=0.02
.model PM PMOS VTO=-0.8 KP=25u LAMBDA=0.02
.tran 10n 4u UIC
.end
|}

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  let parsed = Netlist.Parser.parse deck in
  let circuit = parsed.Netlist.Parser.circuit in
  let tran = Option.get parsed.Netlist.Parser.tran in

  banner "DC operating point (unity-gain buffer)";
  let sol = Sim.Engine.(Analysis.solution (run circuit Analysis.Op)) in
  Printf.printf "bias=%.2f V  tail=%.2f V  out1=%.2f V  out=%.2f V (input 2.0 V)\n"
    (Sim.Engine.voltage sol "bias") (Sim.Engine.voltage sol "tail")
    (Sim.Engine.voltage sol "out1") (Sim.Engine.voltage sol "out");

  banner "Layout synthesis -> DRC -> extraction -> LVS";
  let mask = Synth.Row_synth.mask circuit in
  Format.printf "%a@." Layout.Mask.pp_stats mask;
  Printf.printf "DRC violations: %d\n" (List.length (Layout.Drc.check mask));
  let options =
    { Extract.Extractor.nmos_bulk = "0";
      pmos_bulk = "vdd";
      cap_per_nm2 = Synth.Row_synth.default_cap_per_nm2;
      nmos_model =
        (match Netlist.Circuit.find circuit "M3" with
        | Some (Netlist.Device.M { model; _ }) -> model
        | _ -> Netlist.Device.default_nmos);
      pmos_model =
        (match Netlist.Circuit.find circuit "M1" with
        | Some (Netlist.Device.M { model; _ }) -> model
        | _ -> Netlist.Device.default_pmos) }
  in
  let ext = Extract.Extractor.extract ~options mask in
  let lvs = Extract.Compare.run ~golden:circuit ~extracted:ext.Extract.Extraction.circuit () in
  Printf.printf "LVS mismatches: %d\n" (List.length lvs);
  List.iter (fun m -> Format.printf "  %a@." Extract.Compare.pp_mismatch m) lvs;

  banner "LIFT realistic faults";
  let lift = Defects.Lift.run ext in
  Format.printf "%a@." Defects.Lift.pp_classes lift.Defects.Lift.classes;
  List.iteri
    (fun i f -> if i < 8 then Printf.printf "  %s\n" (Faults.Fault.to_string f))
    (Defects.Lift.ranked lift);

  banner "Transient fault simulation (step response, paper tolerances)";
  let config =
    { (Anafault.Campaign.(config_of_options default_options ~tran ~observed:"out")) with
      tolerance = { Anafault.Detect.tol_v = 0.5; tol_t = 0.2e-6 };
      domains = 4 }
  in
  let run = Cat.run_fault_simulation config circuit lift.Defects.Lift.faults in
  Format.printf "%a@." Anafault.Report.pp_summary run
