(* Tests for the netlist representation, SPICE parser and printer. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let eng_tests =
  let open Netlist.Eng in
  let p s = Option.get (parse s) in
  [
    Alcotest.test_case "plain numbers" `Quick (fun () ->
        checkf "int" 42.0 (p "42");
        checkf "float" 3.5 (p "3.5");
        checkf "exp" 1500.0 (p "1.5e3");
        checkf "neg" (-2.0) (p "-2"));
    Alcotest.test_case "suffixes" `Quick (fun () ->
        checkf "k" 1e4 (p "10k");
        checkf "meg" 2e6 (p "2meg");
        checkf "m" 1e-3 (p "1m");
        checkf "u" 1e-7 (p "0.1u");
        checkf "n" 5e-9 (p "5n");
        checkf "p" 1e-11 (p "10p");
        checkf "f" 2e-15 (p "2f");
        checkf "g" 3e9 (p "3G");
        checkf "t" 1e12 (p "1T"));
    Alcotest.test_case "unit letters after suffix" `Quick (fun () ->
        checkf "pF" 1e-11 (p "10pF");
        checkf "V" 5.0 (p "5V");
        checkf "kohm" 2e3 (p "2kohm"));
    Alcotest.test_case "MEG is not milli" `Quick (fun () -> checkf "meg" 1e6 (p "1MEG"));
    Alcotest.test_case "rejects garbage" `Quick (fun () ->
        check_bool "empty" true (parse "" = None);
        check_bool "word" true (parse "hello" = None));
    Alcotest.test_case "round trip via to_string" `Quick (fun () ->
        List.iter
          (fun x -> checkf "rt" x (p (to_string x)))
          [ 0.0; 5.0; 1e4; 2.5e6; 1e-3; 4.7e-9; -3.3 ]);
  ]

let wave_tests =
  let open Netlist.Wave in
  [
    Alcotest.test_case "dc" `Quick (fun () ->
        checkf "v" 5.0 (value (Dc 5.0) 0.3);
        checkf "dc" 5.0 (dc_value (Dc 5.0)));
    Alcotest.test_case "pulse phases" `Quick (fun () ->
        let p =
          Pulse { v1 = 0.; v2 = 5.; delay = 1e-6; rise = 1e-7; fall = 1e-7;
                  width = 1e-6; period = 0. }
        in
        checkf "before delay" 0.0 (value p 0.5e-6);
        checkf "mid rise" 2.5 (value p (1e-6 +. 0.5e-7));
        checkf "plateau" 5.0 (value p 2e-6);
        checkf "mid fall" 2.5 (value p (1e-6 +. 1e-7 +. 1e-6 +. 0.5e-7));
        checkf "after" 0.0 (value p 3e-6);
        checkf "dc is v1" 0.0 (dc_value p));
    Alcotest.test_case "pulse periodic" `Quick (fun () ->
        let p =
          Pulse { v1 = 0.; v2 = 1.; delay = 0.; rise = 1e-9; fall = 1e-9;
                  width = 1e-6; period = 2e-6 }
        in
        checkf "cycle 2 plateau" 1.0 (value p (2e-6 +. 0.5e-6)));
    Alcotest.test_case "pwl interpolates" `Quick (fun () ->
        let w = Pwl [ (0., 0.); (1., 10.); (2., 10.); (3., 0.) ] in
        checkf "mid" 5.0 (value w 0.5);
        checkf "flat" 10.0 (value w 1.7);
        checkf "end clamp" 0.0 (value w 9.0);
        checkf "start clamp" 0.0 (value w (-1.0)));
    Alcotest.test_case "sin" `Quick (fun () ->
        let w = Sin { offset = 1.0; ampl = 2.0; freq = 1.0; delay = 0.0 } in
        checkf "zero" 1.0 (value w 0.0);
        checkf "quarter" 3.0 (value w 0.25));
    Alcotest.test_case "breakpoints of pulse" `Quick (fun () ->
        let p =
          Pulse { v1 = 0.; v2 = 1.; delay = 1e-6; rise = 1e-7; fall = 1e-7;
                  width = 1e-6; period = 0. }
        in
        let bps = breakpoints p ~tstop:1e-5 in
        check_int "count" 4 (List.length bps);
        check_bool "sorted" true (List.sort compare bps = bps));
  ]

let circuit_tests =
  let open Netlist in
  let r name n1 n2 value = Device.R { name; n1; n2; value } in
  [
    Alcotest.test_case "add and find" `Quick (fun () ->
        let c = Circuit.of_devices "t" [ r "R1" "a" "b" 1.0; r "R2" "b" "0" 2.0 ] in
        check_int "count" 2 (Circuit.device_count c);
        check_bool "found" true (Circuit.find c "R1" <> None);
        check_bool "absent" true (Circuit.find c "RX" = None));
    Alcotest.test_case "duplicate name rejected" `Quick (fun () ->
        let c = Circuit.of_devices "t" [ r "R1" "a" "b" 1.0 ] in
        Alcotest.check_raises "dup" (Invalid_argument "Circuit.add: duplicate device R1")
          (fun () -> ignore (Circuit.add c (r "R1" "x" "y" 2.0))));
    Alcotest.test_case "nodes sorted unique" `Quick (fun () ->
        let c = Circuit.of_devices "t" [ r "R1" "a" "b" 1.0; r "R2" "b" "0" 2.0 ] in
        Alcotest.(check (list string)) "nodes" [ "0"; "a"; "b" ] (Circuit.nodes c));
    Alcotest.test_case "rename_node rewires" `Quick (fun () ->
        let c = Circuit.of_devices "t" [ r "R1" "a" "b" 1.0 ] in
        let c = Circuit.rename_node c ~from_:"b" ~to_:"a" in
        match Circuit.find c "R1" with
        | Some (Device.R { n1; n2; _ }) ->
          Alcotest.(check string) "n1" "a" n1;
          Alcotest.(check string) "n2" "a" n2
        | _ -> Alcotest.fail "R1 missing");
    Alcotest.test_case "devices_on" `Quick (fun () ->
        let c = Circuit.of_devices "t" [ r "R1" "a" "b" 1.0; r "R2" "b" "0" 2.0 ] in
        check_int "on b" 2 (List.length (Circuit.devices_on c "b"));
        check_int "on a" 1 (List.length (Circuit.devices_on c "a")));
    Alcotest.test_case "fresh names avoid collisions" `Quick (fun () ->
        let c = Circuit.of_devices "t" [ r "R1" "a" "b" 1.0 ] in
        check_bool "node" true (Circuit.fresh_node (Circuit.index c) "a" <> "a");
        check_bool "dev" true (Circuit.fresh_name (Circuit.index c) "R1" <> "R1"));
    Alcotest.test_case "replace" `Quick (fun () ->
        let c = Circuit.of_devices "t" [ r "R1" "a" "b" 1.0 ] in
        let c = Circuit.replace c (r "R1" "a" "b" 9.0) in
        match Circuit.find c "R1" with
        | Some (Device.R { value; _ }) -> checkf "value" 9.0 value
        | _ -> Alcotest.fail "R1 missing");
    Alcotest.test_case "remove" `Quick (fun () ->
        let c = Circuit.of_devices "t" [ r "R1" "a" "b" 1.0 ] in
        check_int "left" 0 (Circuit.device_count (Circuit.remove c "R1")));
  ]

let sample_deck =
  {|* sample deck
VDD vdd 0 DC 5
VIN in 0 PULSE(0 5 0 1n 1n 2u 4u)
R1 vdd out 10k
C1 out 0 10p IC=0
M1 out in 0 0 NMOD W=10u L=1u
D1 out 0 DCLAMP
.model NMOD NMOS (VTO=1 KP=40u LAMBDA=0.02)
.model DCLAMP D (IS=1e-14)
.tran 10n 4u UIC
.end
|}

let parser_tests =
  let open Netlist in
  [
    Alcotest.test_case "parses sample deck" `Quick (fun () ->
        let deck = Parser.parse sample_deck in
        check_int "devices" 6 (Circuit.device_count deck.circuit);
        match deck.tran with
        | Some { tstep; tstop; uic } ->
          checkf "tstep" 1e-8 tstep;
          checkf "tstop" 4e-6 tstop;
          check_bool "uic" true uic
        | None -> Alcotest.fail "missing .tran");
    Alcotest.test_case "mosfet fields" `Quick (fun () ->
        let deck = Parser.parse sample_deck in
        match Circuit.find deck.circuit "M1" with
        | Some (Device.M { model; w; l; d; g; s; b; _ }) ->
          checkf "W" 1e-5 w;
          checkf "L" 1e-6 l;
          checkf "VTO" 1.0 model.vto;
          checkf "KP" 4e-5 model.kp;
          check_bool "kind" true (model.kind = Device.Nmos);
          Alcotest.(check (list string)) "terms" [ "out"; "in"; "0"; "0" ] [ d; g; s; b ]
        | _ -> Alcotest.fail "M1 missing");
    Alcotest.test_case "pulse source" `Quick (fun () ->
        let deck = Parser.parse sample_deck in
        match Circuit.find deck.circuit "VIN" with
        | Some (Device.V { wave = Wave.Pulse p; _ }) ->
          checkf "v2" 5.0 p.v2;
          checkf "width" 2e-6 p.width;
          checkf "period" 4e-6 p.period
        | _ -> Alcotest.fail "VIN not a pulse");
    Alcotest.test_case "continuation lines" `Quick (fun () ->
        let deck =
          Parser.parse "t\nVX a 0 PWL(0 0\n+ 1u 5)\n.end\n"
        in
        match Circuit.find deck.circuit "VX" with
        | Some (Device.V { wave = Wave.Pwl [ (0.0, 0.0); (t1, v1) ]; _ }) ->
          checkf "t1" 1e-6 t1;
          checkf "v1" 5.0 v1
        | _ -> Alcotest.fail "continuation not folded");
    Alcotest.test_case "comments ignored" `Quick (fun () ->
        let deck = Parser.parse "t\n* nothing\nR1 a 0 1k ; trailing\n.end\n" in
        check_int "devices" 1 (Circuit.device_count deck.circuit));
    Alcotest.test_case "unknown model errors with line" `Quick (fun () ->
        match Parser.parse "t\nM1 d g s b NOPE\n.end\n" with
        | exception Parser.Parse_error (2, _) -> ()
        | exception Parser.Parse_error (n, _) ->
          Alcotest.failf "wrong line %d" n
        | _ -> Alcotest.fail "expected parse error");
    Alcotest.test_case "printer round-trips" `Quick (fun () ->
        let deck = Parser.parse sample_deck in
        let text = Printer.deck_to_string ?tran:deck.tran deck.circuit in
        let deck2 = Parser.parse text in
        check_int "devices" (Circuit.device_count deck.circuit)
          (Circuit.device_count deck2.circuit);
        Alcotest.(check (list string))
          "names"
          (List.map Device.name (Circuit.devices deck.circuit))
          (List.map Device.name (Circuit.devices deck2.circuit));
        check_bool "tran" true (deck2.tran = deck.tran));
  ]

let more_parser_tests =
  [
    Alcotest.test_case "inductor card with IC" `Quick (fun () ->
        let c = (Netlist.Parser.parse "t\nL1 a 0 1m IC=2m\n.end\n").Netlist.Parser.circuit in
        match Netlist.Circuit.find c "L1" with
        | Some (Netlist.Device.L { value; ic; _ }) ->
          checkf "value" 1e-3 value;
          check_bool "ic" true (ic = Some 2e-3)
        | _ -> Alcotest.fail "L1 missing");
    Alcotest.test_case "diode without model uses default" `Quick (fun () ->
        let c = (Netlist.Parser.parse "t\nD1 a 0\n.end\n").Netlist.Parser.circuit in
        match Netlist.Circuit.find c "D1" with
        | Some (Netlist.Device.D { model; _ }) ->
          checkf "is" 1e-14 model.is_sat
        | _ -> Alcotest.fail "D1 missing");
    Alcotest.test_case "sin source parses" `Quick (fun () ->
        let c =
          (Netlist.Parser.parse "t\nV1 a 0 SIN(1 2 1k 0)\n.end\n").Netlist.Parser.circuit
        in
        match Netlist.Circuit.find c "V1" with
        | Some (Netlist.Device.V { wave = Netlist.Wave.Sin s; _ }) ->
          checkf "freq" 1e3 s.freq
        | _ -> Alcotest.fail "not a SIN");
    Alcotest.test_case "duplicate device name errors with line" `Quick (fun () ->
        match Netlist.Parser.parse "t\nR1 a 0 1k\nR1 b 0 1k\n.end\n" with
        | exception Netlist.Parser.Parse_error (3, _) -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    Alcotest.test_case ".tran needs finite 0 < tstep <= tstop" `Quick (fun () ->
        (* "1e999" reads as infinity; a run to it would never finish. *)
        List.iter
          (fun card ->
            match Netlist.Parser.parse ("t\nR1 a 0 1k\n" ^ card ^ "\n.end\n") with
            | exception Netlist.Parser.Parse_error (3, _) -> ()
            | exception Netlist.Parser.Parse_error (n, m) ->
              Alcotest.failf "%s: error on line %d (%s), want 3" card n m
            | _ -> Alcotest.failf "%s: expected Parse_error" card)
          [ ".tran 10n 1e999"; ".tran 0 4u"; ".tran 1u 10n" ]);
    Alcotest.test_case "printer round-trips inductors and diodes" `Quick (fun () ->
        let deck =
          Netlist.Parser.parse "t\nL1 a b 1m IC=1m\nD1 b 0 DX\n.model DX D IS=2e-14 N=1.5\n.end\n"
        in
        let text = Netlist.Printer.deck_to_string deck.Netlist.Parser.circuit in
        let again = Netlist.Parser.parse text in
        check_int "count" 2 (Netlist.Circuit.device_count again.Netlist.Parser.circuit));
  ]

let subckt_deck =
  {|hierarchy demo
VDD vdd 0 5
VIN in 0 1
XA in mid INV
XB mid out INV
.subckt INV a y
M1 y a 0 0 NM W=10u L=1u
RL vdd y 10k
.model NM NMOS VTO=1 KP=60u
.ends
.end
|}

let subckt_tests =
  [
    Alcotest.test_case "instances are flattened with scoped names" `Quick (fun () ->
        let c = (Netlist.Parser.parse subckt_deck).Netlist.Parser.circuit in
        check_int "devices" 6 (Netlist.Circuit.device_count c);
        check_bool "XA.M1" true (Netlist.Circuit.find c "XA.M1" <> None);
        check_bool "XB.RL" true (Netlist.Circuit.find c "XB.RL" <> None));
    Alcotest.test_case "ports map to actual nets, internals scoped" `Quick (fun () ->
        let c = (Netlist.Parser.parse subckt_deck).Netlist.Parser.circuit in
        (match Netlist.Circuit.find c "XA.M1" with
        | Some (Netlist.Device.M { d; g; s; _ }) ->
          Alcotest.(check string) "gate" "in" g;
          Alcotest.(check string) "drain" "mid" d;
          Alcotest.(check string) "source is ground" "0" s
        | _ -> Alcotest.fail "XA.M1 missing");
        (* vdd inside the subckt is NOT a port: it scopes per instance. *)
        match Netlist.Circuit.find c "XA.RL" with
        | Some (Netlist.Device.R { n1; _ }) -> Alcotest.(check string) "scoped" "XA.vdd" n1
        | _ -> Alcotest.fail "XA.RL missing");
    Alcotest.test_case "nested subcircuits expand" `Quick (fun () ->
        let deck =
          "t\nX1 a b TWO\n.subckt ONE p q\nR1 p q 1k\n.ends\n.subckt TWO p q\nXI p m ONE\nXJ m q ONE\n.ends\n.end\n"
        in
        let c = (Netlist.Parser.parse deck).Netlist.Parser.circuit in
        check_int "devices" 2 (Netlist.Circuit.device_count c);
        check_bool "deep name" true (Netlist.Circuit.find c "X1.XI.R1" <> None);
        match Netlist.Circuit.find c "X1.XI.R1" with
        | Some (Netlist.Device.R { n1; n2; _ }) ->
          Alcotest.(check string) "outer port" "a" n1;
          Alcotest.(check string) "inner net scoped" "X1.m" n2
        | _ -> Alcotest.fail "missing");
    Alcotest.test_case "port arity mismatch errors" `Quick (fun () ->
        let deck = "t\nX1 a b c INV\n.subckt INV a y\nR1 a y 1k\n.ends\n.end\n" in
        match Netlist.Parser.parse deck with
        | exception Netlist.Parser.Parse_error (_, _) -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    Alcotest.test_case "unknown subcircuit errors" `Quick (fun () ->
        match Netlist.Parser.parse "t\nX1 a b NOPE\n.end\n" with
        | exception Netlist.Parser.Parse_error (2, _) -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    Alcotest.test_case "missing .ends errors" `Quick (fun () ->
        match Netlist.Parser.parse "t\n.subckt INV a y\nR1 a y 1k\n.end\n" with
        | exception Netlist.Parser.Parse_error (_, _) -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    Alcotest.test_case "flattened circuit simulates" `Quick (fun () ->
        let c = (Netlist.Parser.parse subckt_deck).Netlist.Parser.circuit in
        (* The local vdd nets float; tie them for a meaningful solve. *)
        let c = Netlist.Circuit.rename_node c ~from_:"XA.vdd" ~to_:"vdd" in
        let c = Netlist.Circuit.rename_node c ~from_:"XB.vdd" ~to_:"vdd" in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        (* in = 1 V < VTO: first inverter output high, second low-ish. *)
        check_bool "mid high" true (Sim.Engine.voltage sol "mid" > 4.0);
        check_bool "out low" true (Sim.Engine.voltage sol "out" < 1.0));
  ]

let qcheck_tests =
  let open QCheck in
  let mag = Gen.float_range 1e-15 1e12 in
  [
    Test.make ~name:"eng to_string/parse round-trip" ~count:300
      (make ~print:string_of_float mag) (fun x ->
        match Netlist.Eng.parse (Netlist.Eng.to_string x) with
        | Some y -> Float.abs (y -. x) <= 1e-5 *. Float.abs x
        | None -> false);
  ]
  |> List.map Prop.to_alcotest

let suites =
  [
    ("netlist.eng", eng_tests);
    ("netlist.wave", wave_tests);
    ("netlist.circuit", circuit_tests);
    ("netlist.parser", parser_tests);
    ("netlist.parser.more", more_parser_tests);
    ("netlist.subckt", subckt_tests);
    ("netlist.properties", qcheck_tests);
  ]
