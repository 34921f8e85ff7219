(* Tests for fault representation, the schematic universe and injection. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf tol = Alcotest.(check (float tol))

let parse s = (Netlist.Parser.parse s).Netlist.Parser.circuit

let divider = parse "div\nV1 in 0 10\nR1 in out 1k\nR2 out 0 1k\n.end\n"

let bridge_fault =
  Faults.Fault.make ~id:"#1"
    ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "0" })
    ~mechanism:"metal1_short" ()

let open_fault =
  Faults.Fault.make ~id:"#2"
    ~kind:(Faults.Fault.Break
             { net = "out"; moved = [ { Faults.Fault.device = "R2"; port = 0 } ] })
    ~mechanism:"metal1_open" ()

let fault_tests =
  [
    Alcotest.test_case "equivalent ignores net order" `Quick (fun () ->
        let f1 =
          Faults.Fault.make ~id:"a"
            ~kind:(Faults.Fault.Bridge { net_a = "x"; net_b = "y" })
            ~mechanism:"m1" ()
        in
        let f2 =
          Faults.Fault.make ~id:"b"
            ~kind:(Faults.Fault.Bridge { net_a = "y"; net_b = "x" })
            ~mechanism:"poly" ~prob:0.5 ()
        in
        check_bool "equiv" true (Faults.Fault.equivalent f1 f2));
    Alcotest.test_case "equivalent ignores terminal order" `Quick (fun () ->
        let t1 = { Faults.Fault.device = "M1"; port = 0 } in
        let t2 = { Faults.Fault.device = "M2"; port = 2 } in
        let f1 =
          Faults.Fault.make ~id:"a"
            ~kind:(Faults.Fault.Break { net = "n"; moved = [ t1; t2 ] })
            ~mechanism:"m1" ()
        in
        let f2 =
          Faults.Fault.make ~id:"b"
            ~kind:(Faults.Fault.Break { net = "n"; moved = [ t2; t1 ] })
            ~mechanism:"m1" ()
        in
        check_bool "equiv" true (Faults.Fault.equivalent f1 f2));
    Alcotest.test_case "distinct faults not equivalent" `Quick (fun () ->
        check_bool "not equiv" false (Faults.Fault.equivalent bridge_fault open_fault));
    Alcotest.test_case "is_local bridge on one device" `Quick (fun () ->
        check_bool "local" true (Faults.Fault.is_local divider bridge_fault);
        let global =
          Faults.Fault.make ~id:"g"
            ~kind:(Faults.Fault.Bridge { net_a = "in"; net_b = "0" })
            ~mechanism:"m1" ()
        in
        (* in-0: no single device spans both nets (V1 does!). *)
        check_bool "V1 spans in-0" true (Faults.Fault.is_local divider global));
    Alcotest.test_case "printing includes id and mechanism" `Quick (fun () ->
        let s = Faults.Fault.to_string bridge_fault in
        check_bool "id" true (String.length s > 0 && s.[0] = '#');
        check_bool "mech" true
          (let rec has i =
             i + 12 <= String.length s && (String.sub s i 12 = "metal1_short" || has (i + 1))
           in
           has 0));
  ]

let universe_tests =
  [
    Alcotest.test_case "VCO universe matches the paper counts" `Quick (fun () ->
        let u = Faults.Universe.build (Vco.Schematic.schematic ()) in
        let opens, shorts = Faults.Universe.count u in
        (* 26 transistors x 3 opens + capacitor open = 79;
           26 x 3 shorts - 6 designed gate-drain diodes + capacitor = 73. *)
        check_int "opens" 79 opens;
        check_int "shorts" 73 shorts;
        check_int "total" 152 (opens + shorts));
    Alcotest.test_case "six diode-connected devices lose their gd short" `Quick (fun () ->
        check_int "diode count" 6 (List.length Vco.Schematic.diode_connected));
    Alcotest.test_case "sources contribute nothing" `Quick (fun () ->
        let c = parse "t\nV1 a 0 5\nI1 a 0 1m\n.end\n" in
        check_int "none" 0 (List.length (Faults.Universe.build c)));
    Alcotest.test_case "rc universe" `Quick (fun () ->
        let c = parse "t\nR1 a b 1k\nC1 b 0 1n\n.end\n" in
        let u = Faults.Universe.build c in
        check_int "2 opens + 2 shorts" 4 (List.length u));
    Alcotest.test_case "unique ids" `Quick (fun () ->
        let u = Faults.Universe.build (Vco.Schematic.schematic ()) in
        let ids = List.map (fun (f : Faults.Fault.t) -> f.id) u in
        check_int "unique" (List.length ids) (List.length (List.sort_uniq compare ids)));
  ]

let collapse_tests =
  [
    Alcotest.test_case "parallel devices collapse their shorts" `Quick (fun () ->
        let c =
          parse
            ("t\nM1 d g s 0 NM\nM2 d g s 0 NM\n.model NM NMOS VTO=1\n.end\n")
        in
        let u = Faults.Universe.build c in
        let collapsed = Faults.Universe.collapse u in
        (* 6 opens stay distinct (different terminals), 6 shorts collapse
           pairwise into 3 classes. *)
        check_int "universe" 12 (List.length u);
        check_int "collapsed" 9 (List.length collapsed);
        check_int "classes of 2" 3
          (List.length (List.filter (fun (_, n) -> n = 2) collapsed)));
    Alcotest.test_case "vco universe collapses meaningfully" `Quick (fun () ->
        let u = Faults.Universe.build (Vco.Schematic.schematic ()) in
        let collapsed = Faults.Universe.collapse u in
        check_bool "smaller" true (List.length collapsed < List.length u);
        check_int "classes cover all" (List.length u)
          (List.fold_left (fun acc (_, n) -> acc + n) 0 collapsed));
    Alcotest.test_case "probabilities sum within a class" `Quick (fun () ->
        let f p =
          Faults.Fault.make ~id:"x" ~kind:(Faults.Fault.Bridge { net_a = "a"; net_b = "b" })
            ~mechanism:"m" ~prob:p ()
        in
        match Faults.Universe.collapse [ f 1.0; f 2.0 ] with
        | [ (g, 2) ] -> checkf 1e-12 "sum" 3.0 g.Faults.Fault.prob
        | _ -> Alcotest.fail "expected one class of 2");
  ]

let resistor_model = Faults.Inject.default_resistor

let inject_tests =
  [
    Alcotest.test_case "bridge resistor model shorts the divider" `Quick (fun () ->
        let faulty = Faults.Inject.apply ~model:resistor_model divider bridge_fault in
        check_int "one extra device" 4 (Netlist.Circuit.device_count faulty);
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        checkf 1e-3 "out shorted" 0.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "bridge source model shorts the divider" `Quick (fun () ->
        let faulty = Faults.Inject.apply ~model:Faults.Inject.Source divider bridge_fault in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        checkf 1e-9 "out shorted" 0.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "bridge on same net is a no-op" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"x"
            ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "out" })
            ~mechanism:"m1" ()
        in
        let faulty = Faults.Inject.apply ~model:resistor_model divider f in
        check_int "unchanged" 3 (Netlist.Circuit.device_count faulty));
    Alcotest.test_case "open resistor model floats the divider tap" `Quick (fun () ->
        (* Detach R2's top terminal: out becomes in (no load current). *)
        let faulty = Faults.Inject.apply ~model:resistor_model divider open_fault in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        checkf 0.01 "out pulled up" 10.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "open source model disconnects" `Quick (fun () ->
        let faulty = Faults.Inject.apply ~model:Faults.Inject.Source divider open_fault in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        checkf 0.01 "out pulled up" 10.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "break rewires the named terminal" `Quick (fun () ->
        let faulty = Faults.Inject.apply ~model:resistor_model divider open_fault in
        match Netlist.Circuit.find faulty "R2" with
        | Some (Netlist.Device.R { n1; _ }) ->
          check_bool "moved off out" true (n1 <> "out")
        | _ -> Alcotest.fail "R2 missing");
    Alcotest.test_case "stuck-open kills the channel but keeps gate load" `Quick (fun () ->
        let c =
          parse
            "inv\nVDD vdd 0 5\nVIN in 0 5\nRD vdd out 10k\nM1 out in 0 0 NM W=10u L=1u\n.model NM NMOS VTO=1 KP=60u\n.end\n"
        in
        let f =
          Faults.Fault.make ~id:"s" ~kind:(Faults.Fault.Stuck_open { device = "M1" })
            ~mechanism:"channel_open" ()
        in
        let faulty = Faults.Inject.apply ~model:resistor_model c f in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        (* The transistor never conducts: the output stays high. *)
        checkf 1e-3 "out high" 5.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "stuck-open on non-mos raises" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"s" ~kind:(Faults.Fault.Stuck_open { device = "R1" })
            ~mechanism:"x" ()
        in
        match Faults.Inject.apply ~model:resistor_model divider f with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "break of unknown terminal raises" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"b"
            ~kind:(Faults.Fault.Break
                     { net = "out"; moved = [ { Faults.Fault.device = "R9"; port = 0 } ] })
            ~mechanism:"x" ()
        in
        match Faults.Inject.apply ~model:resistor_model divider f with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "break terminal/net mismatch raises" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"b"
            ~kind:(Faults.Fault.Break
                     { net = "in"; moved = [ { Faults.Fault.device = "R2"; port = 0 } ] })
            ~mechanism:"x" ()
        in
        (* R2 port 0 is on "out", not "in". *)
        match Faults.Inject.apply ~model:resistor_model divider f with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "split node moves several terminals together" `Quick (fun () ->
        let c = parse "t\nV1 n 0 1\nR1 n a 1k\nR2 n b 1k\nR3 a 0 1k\nR4 b 0 1k\n.end\n" in
        let f =
          Faults.Fault.make ~id:"sp"
            ~kind:(Faults.Fault.Break
                     { net = "n";
                       moved =
                         [ { Faults.Fault.device = "R1"; port = 0 };
                           { Faults.Fault.device = "R2"; port = 0 } ] })
            ~mechanism:"m1" ()
        in
        let faulty = Faults.Inject.apply ~model:Faults.Inject.Source c f in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        (* Both resistor taps are detached from the source. *)
        checkf 1e-3 "a floats low" 0.0 (Sim.Engine.voltage sol "a");
        checkf 1e-3 "b floats low" 0.0 (Sim.Engine.voltage sol "b"));
  ]

let suites =
  [
    ("faults.fault", fault_tests);
    ("faults.universe", universe_tests);
    ("faults.collapse", collapse_tests);
    ("faults.inject", inject_tests);
  ]
