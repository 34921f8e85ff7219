(* Quickstart: parse a SPICE netlist, simulate it, inject one fault with
   AnaFAULT's machinery and watch it being detected.

     dune exec examples/quickstart.exe *)

let deck =
  {|simple inverter with rc load
VDD vdd 0 5
VIN in 0 PULSE(0 5 0 10n 10n 1u 2u)
RD vdd out 10k
CL out 0 5p IC=0
M1 out in 0 0 NM W=20u L=1u
.model NM NMOS VTO=1 KP=60u LAMBDA=0.02
.tran 10n 4u UIC
.end
|}

let () =
  (* 1. Parse and run the nominal transient. *)
  let parsed = Netlist.Parser.parse deck in
  let circuit = parsed.Netlist.Parser.circuit in
  let tran = Option.get parsed.Netlist.Parser.tran in
  Printf.printf "circuit: %d devices, nodes: %s\n"
    (Netlist.Circuit.device_count circuit)
    (String.concat " " (Netlist.Circuit.nodes circuit));
  let config =
    Anafault.Campaign.(config_of_options default_options ~tran ~observed:"out")
  in
  let nominal, stats = Anafault.Simulate.nominal config circuit in
  Printf.printf "nominal: %d kernel steps, out in [%.2f, %.2f] V\n"
    stats.Sim.Engine.accepted_steps
    (Sim.Waveform.signal_min nominal "out")
    (Sim.Waveform.signal_max nominal "out");

  (* 2. Describe a fault: the output bridged to ground. *)
  let fault =
    Faults.Fault.make ~id:"#1"
      ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "0" })
      ~mechanism:"metal1_short" ~prob:2e-7 ()
  in
  Printf.printf "fault:   %s\n" (Faults.Fault.to_string fault);

  (* 3. Simulate it under both fault models, each a patch on one engine
     session built for the fault-free circuit. *)
  let session = Anafault.Simulate.session config circuit in
  List.iter
    (fun (label, model) ->
      let result =
        List.hd
          (Anafault.Simulate.run_chunk { config with model } session ~nominal [ fault ])
      in
      let outcome =
        match result.Anafault.Simulate.outcome with
        | Anafault.Simulate.Detected t ->
          Printf.sprintf "detected at %s" (Netlist.Eng.to_string t)
        | Anafault.Simulate.Undetected -> "undetected"
        | Anafault.Simulate.Sim_failed f ->
          "simulation failed: " ^ Anafault.Simulate.failure_to_string f
      in
      Printf.printf "%s model: %s\n" label outcome)
    [ ("source  ", Faults.Inject.Source);
      ("resistor", Faults.Inject.default_resistor) ];

  (* 4. The whole schematic fault universe, in one call. *)
  let universe = Faults.Universe.build circuit in
  let run, _ = Anafault.Parsim.execute config circuit universe in
  Printf.printf "\nuniverse of %d faults:\n" (List.length universe);
  Format.printf "%a@." Anafault.Report.pp_summary run;
  print_newline ();
  print_string (Anafault.Report.coverage_plot run)
