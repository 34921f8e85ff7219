(* The VCO's DC control path - the operating-point companion of the
   paper's transient loop (its state-of-the-art section cites the DC
   fault simulators it generalises).  A sweep of the control voltage maps
   the V-to-I conversion, and a fault in the mirror shows up as a bent
   characteristic.

   dune exec examples/dc_sweep.exe *)

let () =
  print_endline "=== VCO control path: DC sweep of the V-to-I conversion ===";
  (* The full VCO has no stable DC point (it is an oscillator), so the
     sweep isolates the paper\'s "V-to-I conversion" block: M1..M10 with
     resistive loads standing in for the analogue switch. *)
  let vco = Cat.Demo.schematic () in
  let block =
    let mirror_devices =
      List.filter_map
        (fun name -> Netlist.Circuit.find vco name)
        [ "M1"; "M2"; "M3"; "M4"; "M5"; "M6"; "M7"; "M8"; "M9"; "M10" ]
    in
    Netlist.Circuit.of_devices "v-to-i block"
      (Netlist.Device.V { name = "VDD"; np = "1"; nn = "0"; wave = Netlist.Wave.Dc 5.0 }
      :: Netlist.Device.V { name = "VCTL"; np = "2"; nn = "0"; wave = Netlist.Wave.Dc 3.0 }
      :: Netlist.Device.R { name = "RLC"; n1 = "8"; n2 = "0"; value = 50e3 }
      :: Netlist.Device.R { name = "RLD"; n1 = "1"; n2 = "5"; value = 50e3 }
      :: mirror_devices)
  in
  let values = List.init 9 (fun i -> 1.0 +. (0.375 *. float_of_int i)) in
  let charge_current sol = Sim.Engine.voltage sol "8" /. 50e3 *. 1e6 in
  let sweep circuit =
    Sim.Engine.(
      Analysis.sweep (run circuit (Analysis.Dc_sweep { source = "VCTL"; values })))
  in
  let nominal_sweep = sweep block in
  let faulty_block =
    Netlist.Circuit.add block
      (Netlist.Device.R { name = "FB"; n1 = "6"; n2 = "0"; value = 0.01 })
  in
  let faulty_sweep = sweep faulty_block in
  Printf.printf "%8s %18s %24s\n" "Vctl [V]" "I(charge) [uA]" "I(charge) BRI 6<->0 [uA]";
  List.iter2
    (fun (v, sn) (_, sf) ->
      Printf.printf "%8.3f %18.2f %24.2f\n" v (charge_current sn) (charge_current sf))
    nominal_sweep faulty_sweep;
  print_endline
    "(the charge current rises with the control voltage - the VCO tuning law -\n\
     and the discharge-mirror bridge leaves it untouched: that fault only\n\
     disturbs the discharge phase, which is why Fig. 4 sees it in the frequency)"
