(* Shared helpers for the experiment reproductions. *)

let banner title =
  Printf.printf "\n";
  Printf.printf "======================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "======================================================================\n"

let tran = Vco.Schematic.tran

let simulate ?(options = Sim.Engine.default_options) ?(obs = Obs.null) circuit =
  Sim.Engine.(
    Analysis.waveform
      (run ~options ~obs circuit
         (Analysis.Tran
            {
              tstep = tran.Netlist.Parser.tstep;
              tstop = tran.Netlist.Parser.tstop;
              uic = true;
            })))

(* Rising-edge count of the VCO output through mid-rail. *)
let count_edges ?(signal = Vco.Schematic.out_node) wf =
  Sim.Waveform.rising_edges wf signal ~threshold:2.5

let frequency_mhz ?(signal = Vco.Schematic.out_node) wf =
  Sim.Waveform.estimate_frequency wf signal ~threshold:2.5 /. 1e6

let series_of ?(signal = Vco.Schematic.out_node) ?(n = 150) wf =
  let r = Sim.Waveform.resample wf ~n in
  Array.to_list
    (Array.map (fun t -> (t, Sim.Waveform.value_at r signal t)) (Sim.Waveform.times r))

(* The layout-driven artefacts are expensive; build them once. *)
let glrfm =
  lazy
    (Cat.run_glrfm ~extractor_options:Cat.Demo.extractor_options
       ~golden:(Cat.Demo.schematic ()) (Cat.Demo.mask ()))

let lift_faults () = (Lazy.force glrfm).Cat.lift.Defects.Lift.faults

let find_bridge nets =
  let sorted = List.sort compare nets in
  List.find_opt
    (fun (f : Faults.Fault.t) ->
      match f.kind with
      | Faults.Fault.Bridge { net_a; net_b } ->
        List.sort compare [ net_a; net_b ] = sorted
      | Faults.Fault.Break _ | Faults.Fault.Stuck_open _ -> false)
    (lift_faults ())

let inject_resistor circuit a b r =
  Netlist.Circuit.add circuit
    (Netlist.Device.R
       { name = Netlist.Circuit.fresh_name (Netlist.Circuit.index circuit) "FB"; n1 = a; n2 = b; value = r })

let row fmt = Printf.printf fmt
