(* Tests for the VCO demonstrator: schematic behaviour, layout integrity,
   and the schematic/layout correspondence (LVS). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let count_edges wf signal =
  let s = Sim.Waveform.samples wf signal in
  let c = ref 0 in
  for i = 1 to Array.length s - 1 do
    if s.(i - 1) < 2.5 && s.(i) >= 2.5 then incr c
  done;
  !c

let simulate ?(vctl = 3.0) ?(mutate = fun c -> c) () =
  let c = mutate (Vco.Schematic.schematic ~vctl ()) in
  Sim.Engine.(
    Analysis.waveform
      (run c (Analysis.Tran { tstep = Vco.Schematic.tran.Netlist.Parser.tstep; tstop = Vco.Schematic.tran.Netlist.Parser.tstop; uic = true })))

let schematic_tests =
  [
    Alcotest.test_case "26 transistors and one capacitor" `Quick (fun () ->
        let c = Vco.Schematic.schematic () in
        let mos, cap =
          List.fold_left
            (fun (m, k) d ->
              match d with
              | Netlist.Device.M _ -> (m + 1, k)
              | Netlist.Device.C _ -> (m, k + 1)
              | _ -> (m, k))
            (0, 0) (Netlist.Circuit.devices c)
        in
        check_int "mos" Vco.Schematic.transistor_count mos;
        check_int "mos is 26" 26 mos;
        check_int "cap" 1 cap);
    Alcotest.test_case "six devices are gate-drain connected" `Quick (fun () ->
        let c = Vco.Schematic.schematic () in
        let diode_like name =
          match Netlist.Circuit.find c name with
          | Some (Netlist.Device.M { d; g; _ }) -> String.equal d g
          | _ -> false
        in
        check_int "count" 6 (List.length Vco.Schematic.diode_connected);
        List.iter
          (fun n -> check_bool (n ^ " diode") true (diode_like n))
          Vco.Schematic.diode_connected);
    Alcotest.test_case "oscillates from a cold start" `Slow (fun () ->
        let wf = simulate () in
        let edges = count_edges wf Vco.Schematic.out_node in
        check_bool "several cycles" true (edges >= 3 && edges <= 12);
        check_bool "full swing" true
          (Sim.Waveform.signal_max wf Vco.Schematic.out_node > 4.5
          && Sim.Waveform.signal_min wf Vco.Schematic.out_node < 0.5));
    Alcotest.test_case "frequency rises with control voltage" `Slow (fun () ->
        let edges v = count_edges (simulate ~vctl:v ()) Vco.Schematic.out_node in
        check_bool "monotone" true (edges 4.0 > edges 2.5));
    Alcotest.test_case "capacitor swings inside the schmitt window" `Slow (fun () ->
        let wf = simulate () in
        let lo = Sim.Waveform.signal_min wf Vco.Schematic.cap_node
        and hi = Sim.Waveform.signal_max wf Vco.Schematic.cap_node in
        check_bool "window" true (lo >= -0.1 && hi <= 4.0 && hi -. lo > 1.0));
  ]

let layout_tests =
  [
    Alcotest.test_case "mask is DRC clean" `Slow (fun () ->
        let violations = Layout.Drc.check (Cat.Demo.mask ()) in
        Alcotest.(check (list string))
          "clean" []
          (List.map (Format.asprintf "%a" Layout.Drc.pp_violation) violations));
    Alcotest.test_case "extraction recovers the schematic (LVS)" `Slow (fun () ->
        let ext = Extract.Extractor.extract ~options:Cat.Demo.extractor_options (Cat.Demo.mask ()) in
        let mism =
          Extract.Compare.run ~golden:(Cat.Demo.schematic ())
            ~extracted:ext.Extract.Extraction.circuit ()
        in
        Alcotest.(check (list string))
          "lvs clean" []
          (List.map (Format.asprintf "%a" Extract.Compare.pp_mismatch) mism));
    Alcotest.test_case "net names follow the paper numbering" `Slow (fun () ->
        let ext = Extract.Extractor.extract ~options:Cat.Demo.extractor_options (Cat.Demo.mask ()) in
        let names = Array.to_list ext.Extract.Extraction.net_names in
        List.iter
          (fun n -> check_bool ("net " ^ n) true (List.mem n names))
          [ "1"; "2"; "5"; "6"; "11"; "12" ]);
    Alcotest.test_case "cif round-trips the vco mask" `Slow (fun () ->
        let m = Cat.Demo.mask () in
        let m2 = Layout.Cif.of_string ~tech:Layout.Tech.default (Layout.Cif.to_string m) in
        check_int "shapes" (Layout.Mask.shape_count m) (Layout.Mask.shape_count m2));
  ]

let flow_tests =
  [
    Alcotest.test_case "cat glrfm flow end to end" `Slow (fun () ->
        let g =
          Cat.run_glrfm ~extractor_options:Cat.Demo.extractor_options
            ~golden:(Cat.Demo.schematic ()) (Cat.Demo.mask ())
        in
        check_int "lvs clean" 0 (List.length g.Cat.lvs);
        check_bool "faults found" true (g.Cat.lift.Defects.Lift.faults <> []));
    Alcotest.test_case "fault simulation of the top-ranked faults" `Slow (fun () ->
        let g =
          Cat.run_glrfm ~extractor_options:Cat.Demo.extractor_options
            ~golden:(Cat.Demo.schematic ()) (Cat.Demo.mask ())
        in
        let top =
          List.filteri (fun i _ -> i < 5) (Defects.Lift.ranked g.Cat.lift)
        in
        let run = Cat.run_fault_simulation Cat.Demo.config (Cat.Demo.schematic ()) top in
        let detected, _, failed = Anafault.Simulate.tally run in
        check_int "no failures" 0 failed;
        check_bool "most likely faults detected" true (detected >= 4));
  ]

let suites =
  [
    ("vco.schematic", schematic_tests);
    ("vco.layout", layout_tests);
    ("vco.flow", flow_tests);
  ]
