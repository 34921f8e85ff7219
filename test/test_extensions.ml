(* Tests for the capabilities layered on top of the paper's core flow:
   the fault-list file format, L2RFM, Monte-Carlo IFA, yield estimation,
   SVG rendering, DC sweeps, test preparation and diagnosis. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf tol = Alcotest.(check (float tol))

let parse s = (Netlist.Parser.parse s).Netlist.Parser.circuit

(* --- fault-list file format --- *)

let sample_faults =
  [
    Faults.Fault.make ~id:"#1"
      ~kind:(Faults.Fault.Bridge { net_a = "a"; net_b = "b" })
      ~mechanism:"metal1_short" ~prob:3.2e-7 ();
    Faults.Fault.make ~id:"#2"
      ~kind:(Faults.Fault.Break
               { net = "n";
                 moved =
                   [ { Faults.Fault.device = "M1"; port = 0 };
                     { Faults.Fault.device = "M2"; port = 2 } ] })
      ~mechanism:"poly_open" ~prob:4e-8 ();
    Faults.Fault.make ~id:"#3" ~kind:(Faults.Fault.Stuck_open { device = "M11" })
      ~mechanism:"channel_open" ~prob:5.7e-7 ();
  ]

let fault_list_tests =
  [
    Alcotest.test_case "round trip" `Quick (fun () ->
        let text = Faults.Fault_list.to_string sample_faults in
        let back = Faults.Fault_list.of_string text in
        check_int "count" 3 (List.length back);
        List.iter2
          (fun (a : Faults.Fault.t) b ->
            check_bool "same" true (Faults.Fault.equivalent a b);
            Alcotest.(check string) "id" a.id b.Faults.Fault.id;
            Alcotest.(check string) "mech" a.mechanism b.Faults.Fault.mechanism;
            checkf 1e-12 "prob" a.prob b.Faults.Fault.prob)
          sample_faults back);
    Alcotest.test_case "comments and blanks skipped" `Quick (fun () ->
        let text = "# header comment\n\n; another\n#1 m1_short BRI a b p=1e-7\n" in
        check_int "one" 1 (List.length (Faults.Fault_list.of_string text)));
    Alcotest.test_case "bad terminal reports line" `Quick (fun () ->
        match Faults.Fault_list.of_string "#1 m OPEN n / notaport\n" with
        | exception Faults.Fault_list.Parse_error (1, _) -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    Alcotest.test_case "device names containing dots" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"#1"
            ~kind:(Faults.Fault.Break
                     { net = "n"; moved = [ { Faults.Fault.device = "X.M1"; port = 1 } ] })
            ~mechanism:"m" ()
        in
        match Faults.Fault_list.of_string (Faults.Fault_list.to_string [ f ]) with
        | [ back ] -> check_bool "same" true (Faults.Fault.equivalent f back)
        | _ -> Alcotest.fail "expected one fault");
  ]

(* --- L2RFM --- *)

let l2rfm_tests =
  [
    Alcotest.test_case "vco mapping is local and nonempty" `Slow (fun () ->
        let r = Defects.L2rfm.run (Cat.Demo.schematic ()) in
        check_bool "nonempty" true (r.Defects.L2rfm.faults <> []);
        let circuit = Cat.Demo.schematic () in
        List.iter
          (fun f ->
            check_bool
              ("local: " ^ Faults.Fault.to_string f)
              true
              (Faults.Fault.is_local circuit f))
          r.Defects.L2rfm.faults);
    Alcotest.test_case "ds short of a wide device is mapped" `Slow (fun () ->
        let r = Defects.L2rfm.run (Cat.Demo.schematic ()) in
        (* M11: d=13 s=0, a 300 um channel: its template must yield the
           drain-source bridge. *)
        check_bool "found" true
          (List.exists
             (fun (f : Faults.Fault.t) ->
               match f.kind with
               | Faults.Fault.Bridge { net_a; net_b } ->
                 List.sort compare [ net_a; net_b ] = [ "0"; "13" ]
               | _ -> false)
             r.Defects.L2rfm.faults));
    Alcotest.test_case "diode-connected devices yield no gd bridge" `Slow (fun () ->
        let r = Defects.L2rfm.run (Cat.Demo.schematic ()) in
        (* M2's gate and drain are the same net (3): a bridge 3<->3 must
           have been dropped as electrically void. *)
        check_bool "no self bridge" true
          (List.for_all
             (fun (f : Faults.Fault.t) ->
               match f.kind with
               | Faults.Fault.Bridge { net_a; net_b } -> net_a <> net_b
               | _ -> true)
             r.Defects.L2rfm.faults));
    Alcotest.test_case "glrfm comparison partitions completely" `Slow (fun () ->
        let l2 = Defects.L2rfm.run (Cat.Demo.schematic ()) in
        let glrfm =
          (Cat.run_glrfm ~extractor_options:Cat.Demo.extractor_options
             ~golden:(Cat.Demo.schematic ()) (Cat.Demo.mask ()))
            .Cat.lift
            .Defects.Lift.faults
        in
        let `Anticipated a, `Global_only g =
          Defects.L2rfm.compare_with_glrfm ~l2rfm:l2 ~glrfm
        in
        check_int "partition" (List.length glrfm) (List.length a + List.length g);
        check_bool "some anticipated" true (a <> []);
        check_bool "some global-only" true (g <> []));
  ]

(* --- Monte-Carlo IFA --- *)

let pt = Geom.Point.make

let two_wires_ext () =
  let b = Layout.Builder.create Layout.Tech.default in
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000 [ pt 0 0; pt 100000 0 ];
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000 [ pt 0 4500; pt 100000 4500 ];
  Layout.Builder.label b Layout.Layer.Metal1 (pt 0 0) "a";
  Layout.Builder.label b Layout.Layer.Metal1 (pt 0 4500) "b";
  Extract.Extractor.extract (Layout.Builder.finish b)

let monte_carlo_tests =
  [
    Alcotest.test_case "deterministic for a fixed seed" `Quick (fun () ->
        let ext = two_wires_ext () in
        let a = Defects.Monte_carlo.run ~seed:7 ~samples:2000 ext in
        let b = Defects.Monte_carlo.run ~seed:7 ~samples:2000 ext in
        check_int "same effective" a.Defects.Monte_carlo.effective
          b.Defects.Monte_carlo.effective);
    Alcotest.test_case "parallel wires produce the bridge" `Quick (fun () ->
        let ext = two_wires_ext () in
        let r = Defects.Monte_carlo.run ~seed:1 ~samples:20000 ext in
        check_bool "hits" true (r.Defects.Monte_carlo.effective > 0);
        check_bool "the a-b bridge" true
          (List.exists
             (fun ((f : Faults.Fault.t), _) ->
               match f.kind with
               | Faults.Fault.Bridge { net_a; net_b } ->
                 List.sort compare [ net_a; net_b ] = [ "a"; "b" ]
               | _ -> false)
             r.Defects.Monte_carlo.hits));
    Alcotest.test_case "hit probabilities sum to at least 1" `Quick (fun () ->
        (* Multi-fault defects can push the sum above one. *)
        let ext = two_wires_ext () in
        let r = Defects.Monte_carlo.run ~seed:1 ~samples:20000 ext in
        let total =
          List.fold_left (fun acc ((f : Faults.Fault.t), _) -> acc +. f.prob) 0.0
            r.Defects.Monte_carlo.hits
        in
        check_bool "sane" true (total >= 0.99));
    Alcotest.test_case "agreement with matching list is 1" `Quick (fun () ->
        let ext = two_wires_ext () in
        let r = Defects.Monte_carlo.run ~seed:1 ~samples:20000 ext in
        let faults = List.map fst r.Defects.Monte_carlo.hits in
        checkf 1e-9 "full" 1.0 (Defects.Monte_carlo.agreement r faults);
        checkf 1e-9 "empty" 0.0 (Defects.Monte_carlo.agreement r []));
  ]

(* --- yield --- *)

let yield_tests =
  [
    Alcotest.test_case "yield between 0 and 1, lambda positive" `Quick (fun () ->
        let y = Defects.Yield_model.estimate (two_wires_ext ()) in
        check_bool "lambda" true (y.Defects.Yield_model.lambda > 0.0);
        check_bool "range" true
          (y.Defects.Yield_model.poisson_yield > 0.0
          && y.Defects.Yield_model.poisson_yield < 1.0));
    Alcotest.test_case "negative binomial approaches poisson" `Quick (fun () ->
        let y = Defects.Yield_model.estimate (two_wires_ext ()) in
        checkf 1e-6 "limit" y.Defects.Yield_model.poisson_yield
          (Defects.Yield_model.negative_binomial y ~alpha:1e9);
        check_bool "clustering raises yield" true
          (Defects.Yield_model.negative_binomial y ~alpha:0.5
          >= y.Defects.Yield_model.poisson_yield));
    Alcotest.test_case "per-mechanism lambdas sum to total" `Quick (fun () ->
        let y = Defects.Yield_model.estimate (two_wires_ext ()) in
        let s =
          List.fold_left (fun acc (_, l) -> acc +. l) 0.0 y.Defects.Yield_model.per_mechanism
        in
        checkf 1e-12 "sum" y.Defects.Yield_model.lambda s);
  ]

(* --- SVG --- *)

let svg_tests =
  [
    Alcotest.test_case "renders every drawn layer" `Quick (fun () ->
        let b = Layout.Builder.create Layout.Tech.default in
        ignore (Layout.Builder.mos b ~name:"M1" ~kind:`P ~at:(pt 0 0) ~w:4000 ~l:1000 ());
        Layout.Builder.label b Layout.Layer.Metal1
          (Layout.Builder.mos b ~name:"M2" ~kind:`N ~at:(pt 40000 0) ~w:4000 ~l:1000 ())
            .Layout.Builder.source "probe";
        let svg = Layout.Svg.render (Layout.Builder.finish b) in
        List.iter
          (fun needle ->
            let contains hay needle =
              let nh = String.length hay and nn = String.length needle in
              let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
              go 0
            in
            check_bool needle true (contains svg needle))
          [ "<svg"; "</svg>"; "<rect"; "probe" ]);
    Alcotest.test_case "width parameter respected" `Quick (fun () ->
        let b = Layout.Builder.create Layout.Tech.default in
        Layout.Builder.rect b Layout.Layer.Metal1 (Geom.Rect.make 0 0 1000 1000);
        let svg = Layout.Svg.render ~width:333 (Layout.Builder.finish b) in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "width" true (contains svg "width=\"333\""));
  ]

(* --- DC sweep --- *)

let dc_sweep_tests =
  [
    Alcotest.test_case "linear divider sweeps linearly" `Quick (fun () ->
        let c = parse "d\nV1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n.end\n" in
        let pts =
          Sim.Engine.(
            Analysis.sweep
              (run c (Analysis.Dc_sweep { source = "V1"; values = [ 0.0; 1.0; 2.0; 4.0 ] })))
        in
        List.iter
          (fun (v, sol) -> checkf 1e-6 "half" (v /. 2.0) (Sim.Engine.voltage sol "out"))
          pts);
    Alcotest.test_case "nmos inverter transfer is monotone falling" `Quick (fun () ->
        let c =
          parse
            "inv\nVDD vdd 0 5\nVIN in 0 0\nRD vdd out 10k\nM1 out in 0 0 NM W=10u L=1u\n.model NM NMOS VTO=1 KP=60u\n.end\n"
        in
        let pts =
          Sim.Engine.(
            Analysis.sweep
              (run c (Analysis.Dc_sweep { source = "VIN"; values = (List.init 11 (fun i -> 0.5 *. float_of_int i)) })))
        in
        let outs = List.map (fun (_, s) -> Sim.Engine.voltage s "out") pts in
        let rec falling = function
          | a :: (b :: _ as rest) -> b <= a +. 1e-9 && falling rest
          | _ -> true
        in
        check_bool "monotone" true (falling outs);
        checkf 1e-3 "starts high" 5.0 (List.hd outs);
        check_bool "ends low" true (List.nth outs 10 < 0.5));
    Alcotest.test_case "unknown source rejected" `Quick (fun () ->
        let c = parse "d\nV1 a 0 1\nR1 a 0 1k\n.end\n" in
        match
          Sim.Engine.(
            Analysis.sweep
              (run c (Analysis.Dc_sweep { source = "R1"; values = [ 1.0 ] })))
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* --- test preparation + diagnosis --- *)

let small_inverter =
  parse
    ("inv\nVDD vdd 0 5\nVIN in 0 PULSE(0 5 0 10n 10n 1u 2u)\nRD vdd out 10k\n"
   ^ "M1 out in 0 0 NM W=20u L=1u\n.model NM NMOS VTO=1 KP=60u\n.end\n")

let small_tran = { Netlist.Parser.tstep = 10e-9; tstop = 4e-6; uic = true }

let small_config =
  Anafault.Campaign.(config_of_options default_options ~tran:small_tran ~observed:"out")

let small_faults =
  [
    Faults.Fault.make ~id:"#1"
      ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "vdd" })
      ~mechanism:"metal1_short" ~prob:1e-7 ();
    Faults.Fault.make ~id:"#2"
      ~kind:(Faults.Fault.Break
               { net = "in"; moved = [ { Faults.Fault.device = "M1"; port = 1 } ] })
      ~mechanism:"poly_open" ~prob:1e-8 ();
  ]

let testprep_tests =
  [
    Alcotest.test_case "candidates ranked by weighted coverage" `Quick (fun () ->
        let keep = { Anafault.Testprep.label = "as-is"; prepare = Fun.id; config = small_config } in
        let dead_input =
          { Anafault.Testprep.label = "input grounded";
            prepare =
              (fun c ->
                match Netlist.Circuit.find c "VIN" with
                | Some (Netlist.Device.V v) ->
                  Netlist.Circuit.replace c
                    (Netlist.Device.V { v with wave = Netlist.Wave.Dc 0.0 })
                | Some _ | None -> c);
            config = small_config }
        in
        let verdicts =
          Anafault.Testprep.compare small_inverter small_faults [ dead_input; keep ]
        in
        (match verdicts with
        | best :: _ ->
          Alcotest.(check string) "pulse wins" "as-is"
            best.Anafault.Testprep.candidate.Anafault.Testprep.label
        | [] -> Alcotest.fail "no verdicts");
        check_bool "table renders" true
          (String.length (Format.asprintf "%a" Anafault.Testprep.pp_table verdicts) > 0));
    Alcotest.test_case "verdict coverage consistent with its run" `Quick (fun () ->
        let keep = { Anafault.Testprep.label = "as-is"; prepare = Fun.id; config = small_config } in
        match Anafault.Testprep.compare small_inverter small_faults [ keep ] with
        | [ v ] ->
          checkf 1e-9 "match" v.Anafault.Testprep.coverage
            (Anafault.Coverage.final_percent v.Anafault.Testprep.run)
        | _ -> Alcotest.fail "expected one verdict");
  ]

let diagnose_tests =
  [
    Alcotest.test_case "identifies the injected fault" `Quick (fun () ->
        let dict = Anafault.Diagnose.build small_config small_inverter small_faults in
        check_int "signatures" 2 (Anafault.Diagnose.fault_count dict);
        let culprit = List.nth small_faults 1 in
        let measured =
          (* Same fault model the dictionary was built with. *)
          let faulty =
            Faults.Inject.apply ~model:small_config.Anafault.Simulate.model
              small_inverter culprit
          in
          Sim.Engine.(
            Analysis.waveform
              (run faulty (Analysis.Tran { tstep = 10e-9; tstop = 4e-6; uic = true })))
        in
        match Anafault.Diagnose.diagnose dict measured with
        | Some (f, d) ->
          Alcotest.(check string) "culprit" "#2" f.Faults.Fault.id;
          check_bool "close" true (d < 0.5)
        | None -> Alcotest.fail "no diagnosis");
    Alcotest.test_case "good die is far from every signature" `Quick (fun () ->
        let dict = Anafault.Diagnose.build small_config small_inverter small_faults in
        let good =
          Sim.Engine.(
            Analysis.waveform
              (run small_inverter (Analysis.Tran { tstep = 10e-9; tstop = 4e-6; uic = true })))
        in
        checkf 0.05 "nominal distance" 0.0 (Anafault.Diagnose.nominal_distance dict good);
        match Anafault.Diagnose.rank dict good with
        | (_, d) :: _ -> check_bool "far" true (d > 1.0)
        | [] -> Alcotest.fail "empty rank");
  ]

(* --- row-floorplan layout synthesis --- *)

let synth_qcheck =
  let open QCheck in
  (* Random MOS+C circuits over a small net alphabet: the synthesizer
     must always produce a DRC-clean mask whose extraction is
     LVS-identical to the schematic. *)
  let nets = [ "0"; "vdd"; "a"; "b"; "c"; "d" ] in
  let net = Gen.oneofl nets in
  let mos_gen i =
    Gen.map
      (fun (kind, (d, g, s), w_um, l_um) ->
        let model, bulk =
          match kind with
          | `N -> (Netlist.Device.default_nmos, "0")
          | `P -> (Netlist.Device.default_pmos, "vdd")
        in
        Netlist.Device.M
          { name = Printf.sprintf "M%d" (i + 1); d; g; s; b = bulk; model;
            w = float_of_int w_um *. 1e-6; l = float_of_int l_um *. 1e-6 })
      Gen.(quad (oneofl [ `N; `P ]) (triple net net net) (int_range 2 50) (int_range 1 3))
  in
  let circuit_gen =
    Gen.(
      int_range 1 6 >>= fun n ->
      let rec devs i acc =
        if i >= n then acc
        else devs (i + 1) (map2 (fun l d -> d :: l) acc (mos_gen i))
      in
      map2
        (fun devices (n1, n2) ->
          let devices =
            if n1 <> n2 then
              devices
              @ [ Netlist.Device.C { name = "C1"; n1; n2; value = 5e-12; ic = None } ]
            else devices
          in
          Netlist.Circuit.of_devices "random" devices)
        (devs 0 (return []))
        (pair net net))
  in
  let print_circuit c = Format.asprintf "%a" Netlist.Circuit.pp c in
  [
    Test.make ~name:"synthesised layouts are DRC-clean and LVS-exact" ~count:25
      (make ~print:print_circuit circuit_gen)
      (fun circuit ->
        let mask = Synth.Row_synth.mask circuit in
        let drc = Layout.Drc.check mask in
        let options =
          { Extract.Extractor.default_options with
            nmos_bulk = "0"; pmos_bulk = "vdd";
            cap_per_nm2 = Synth.Row_synth.default_cap_per_nm2 }
        in
        let ext = Extract.Extractor.extract ~options mask in
        let lvs =
          Extract.Compare.run ~golden:circuit
            ~extracted:ext.Extract.Extraction.circuit ()
        in
        drc = [] && lvs = []);
  ]
  |> List.map Prop.to_alcotest

let suites =
  [
    ("faults.fault_list", fault_list_tests);
    ("defects.l2rfm", l2rfm_tests);
    ("defects.monte_carlo", monte_carlo_tests);
    ("defects.yield", yield_tests);
    ("layout.svg", svg_tests);
    ("sim.dc_sweep", dc_sweep_tests);
    ("synth.properties", synth_qcheck);
    ("anafault.testprep", testprep_tests);
    ("anafault.diagnose", diagnose_tests);
  ]
