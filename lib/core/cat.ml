type glrfm = {
  extraction : Extract.Extraction.t;
  lvs : Extract.Compare.mismatch list;
  lift : Defects.Lift.result;
}

let run_glrfm ?lift_options ?extractor_options ~golden mask =
  let extraction = Extract.Extractor.extract ?options:extractor_options mask in
  let lvs =
    Extract.Compare.run ~golden ~extracted:extraction.Extract.Extraction.circuit ()
  in
  let lift = Defects.Lift.run ?options:lift_options extraction in
  { extraction; lvs; lift }

let run_fault_simulation config circuit faults =
  fst (Anafault.Parsim.execute config circuit faults)

module Demo = struct
  let schematic () = Vco.Schematic.schematic ()

  let mask () = Vco.Layout_gen.mask ()

  let extractor_options =
    {
      Extract.Extractor.nmos_model = Vco.Schematic.nmos_model;
      pmos_model = Vco.Schematic.pmos_model;
      nmos_bulk = "0";
      pmos_bulk = Vco.Schematic.vdd_node;
      cap_per_nm2 = Vco.Layout_gen.cap_per_nm2;
    }

  let config =
    Anafault.Campaign.(
      config_of_options default_options ~tran:Vco.Schematic.tran
        ~observed:Vco.Schematic.out_node)

  let universe () = Faults.Universe.build (schematic ())
end
