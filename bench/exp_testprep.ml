(* Section III's application procedure: "AnaFAULT performs an automatic
   fault simulation with the actual set of faults using a given stimulus
   that has to be checked ... Depending on the result the stimulus can be
   refined."  Here four candidate stimuli for the VCO test compete on the
   LIFT fault list. *)

let with_vctl v circuit =
  match Netlist.Circuit.find circuit "VCTL" with
  | Some (Netlist.Device.V src) ->
    Netlist.Circuit.replace circuit
      (Netlist.Device.V { src with wave = Netlist.Wave.Dc v })
  | Some _ | None -> circuit

let with_vctl_step lo hi circuit =
  match Netlist.Circuit.find circuit "VCTL" with
  | Some (Netlist.Device.V src) ->
    Netlist.Circuit.replace circuit
      (Netlist.Device.V
         { src with
           wave =
             Netlist.Wave.Pulse
               { v1 = lo; v2 = hi; delay = 2e-6; rise = 50e-9; fall = 50e-9;
                 width = 1.0; period = 0.0 } })
  | Some _ | None -> circuit

let run () =
  Helpers.banner "Sec. III - comparison of test preparation (stimulus refinement)";
  let base = { Cat.Demo.config with Anafault.Simulate.domains = 8 } in
  let candidates =
    [
      { Anafault.Testprep.label = "Vctl = 2.0 V (slow)"; prepare = with_vctl 2.0;
        config = base };
      { Anafault.Testprep.label = "Vctl = 3.0 V (paper)"; prepare = with_vctl 3.0;
        config = base };
      { Anafault.Testprep.label = "Vctl = 4.0 V (fast)"; prepare = with_vctl 4.0;
        config = base };
      { Anafault.Testprep.label = "Vctl step 2 -> 4 V"; prepare = with_vctl_step 2.0 4.0;
        config = base };
    ]
  in
  let verdicts =
    Anafault.Testprep.compare (Cat.Demo.schematic ())
      (Helpers.lift_faults ()) candidates
  in
  Format.printf "%a@." Anafault.Testprep.pp_table verdicts;
  Printf.printf
    "(the paper holds the control voltage constant; the ranking shows what the\n\
     CAT loop is for - candidate stimuli are judged by weighted coverage and\n\
     test time, and the stimulus is refined accordingly)\n"
