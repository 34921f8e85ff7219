(* Tests for the kernel simulator: linear algebra, device models, DC and
   transient analyses against analytic solutions. *)

let check_bool = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let bits x = Int64.bits_of_float x

let same_bits a b = Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let lu_tests =
  [
    Alcotest.test_case "solves 2x2" `Quick (fun () ->
        let a = [| 2.0; 1.0; 1.0; 3.0 |] in
        let x = Lu.solve_copy a [| 5.0; 10.0 |] in
        checkf 1e-12 "x0" 1.0 x.(0);
        checkf 1e-12 "x1" 3.0 x.(1));
    Alcotest.test_case "pivots when diagonal is zero" `Quick (fun () ->
        let a = [| 0.0; 1.0; 1.0; 0.0 |] in
        let x = Lu.solve_copy a [| 2.0; 3.0 |] in
        checkf 1e-12 "x0" 3.0 x.(0);
        checkf 1e-12 "x1" 2.0 x.(1));
    Alcotest.test_case "raises on singular" `Quick (fun () ->
        let a = [| 1.0; 2.0; 2.0; 4.0 |] in
        match Lu.solve_copy a [| 1.0; 2.0 |] with
        | exception Lu.Singular _ -> ()
        | _ -> Alcotest.fail "expected Singular");
    Alcotest.test_case "Lu.Singular reports the post-pivot row" `Quick (fun () ->
        (* Column 0 pivots on row 1, so the vanished second pivot lives in
           original row 0 - the payload must say 0, not 1. *)
        let a = [| 1.0; 2.0; 2.0; 4.0 |] in
        match Lu.solve_copy a [| 1.0; 2.0 |] with
        | exception Lu.Singular row -> Alcotest.(check int) "row" 0 row
        | _ -> Alcotest.fail "expected Singular");
  ]

let lu_qcheck =
  let open QCheck in
  let gen_system n =
    Gen.(
      pair
        (array_size (return (n * n)) (float_range (-10.0) 10.0))
        (array_size (return n) (float_range (-10.0) 10.0)))
  in
  [
    Test.make ~name:"lu residual small on random 6x6" ~count:200
      (make (gen_system 6)) (fun (flat, b) ->
        let n = 6 in
        let a = Array.copy flat in
        (* Diagonal boost keeps the matrices comfortably nonsingular. *)
        for i = 0 to n - 1 do
          a.((i * n) + i) <- a.((i * n) + i) +. 50.0
        done;
        let x = Lu.solve_copy a b in
        let ok = ref true in
        for i = 0 to n - 1 do
          let s = ref 0.0 in
          for j = 0 to n - 1 do
            s := !s +. (a.((i * n) + j) *. x.(j))
          done;
          if Float.abs (!s -. b.(i)) > 1e-6 then ok := false
        done;
        !ok);
  ]
  |> List.map Prop.to_alcotest

(* The evaluator's outputs at one bias, read back out of its scratch. *)
type mos_eval = { ids : float; gm : float; gds : float }

let mos_eval model ~w ~l ~vgs ~vds =
  let s = Sim.Mosfet.make_scratch () in
  s.(Sim.Mosfet.vgs) <- vgs;
  s.(Sim.Mosfet.vds) <- vds;
  Sim.Mosfet.eval model ~w ~l s;
  { ids = s.(Sim.Mosfet.ids); gm = s.(Sim.Mosfet.gm); gds = s.(Sim.Mosfet.gds) }

let mosfet_tests =
  let nmos = Netlist.Device.default_nmos in
  let pmos = Netlist.Device.default_pmos in
  let eval_n = mos_eval nmos ~w:10e-6 ~l:1e-6 in
  let eval_p = mos_eval pmos ~w:10e-6 ~l:1e-6 in
  [
    Alcotest.test_case "cutoff" `Quick (fun () ->
        let e = eval_n ~vgs:0.2 ~vds:3.0 in
        checkf 1e-15 "ids" 0.0 e.ids);
    Alcotest.test_case "saturation current" `Quick (fun () ->
        (* beta = 60u*10 = 600u; vov = 1.2; ids = 0.5*600u*1.44*(1+0.02*3). *)
        let e = eval_n ~vgs:2.0 ~vds:3.0 in
        checkf 1e-9 "ids" (0.5 *. 600e-6 *. 1.44 *. 1.06) e.ids;
        check_bool "gm > 0" true (e.gm > 0.0);
        check_bool "gds > 0" true (e.gds > 0.0));
    Alcotest.test_case "linear region" `Quick (fun () ->
        let e = eval_n ~vgs:2.0 ~vds:0.1 in
        let expect = 600e-6 *. ((1.2 *. 0.1) -. 0.005) *. (1.0 +. (0.02 *. 0.1)) in
        checkf 1e-9 "ids" expect e.ids);
    Alcotest.test_case "reverse conduction antisymmetry" `Quick (fun () ->
        (* With lambda = 0 the channel is symmetric: swapping D and S
           negates the current. *)
        let m = { nmos with Netlist.Device.lambda = 0.0 } in
        let ev = mos_eval m ~w:10e-6 ~l:1e-6 in
        let fwd = ev ~vgs:2.0 ~vds:1.0 in
        let rev = ev ~vgs:1.0 ~vds:(-1.0) in
        checkf 1e-12 "antisym" fwd.ids (-.rev.ids));
    Alcotest.test_case "pmos mirrors nmos" `Quick (fun () ->
        let ep = eval_p ~vgs:(-2.0) ~vds:(-3.0) in
        check_bool "negative current" true (ep.ids < 0.0);
        check_bool "gm positive" true (ep.gm > 0.0));
    Alcotest.test_case "regions" `Quick (fun () ->
        Alcotest.(check string) "off" "off" (Sim.Mosfet.region nmos ~vgs:0.1 ~vds:1.0);
        Alcotest.(check string) "lin" "linear" (Sim.Mosfet.region nmos ~vgs:3.0 ~vds:0.5);
        Alcotest.(check string)
          "sat" "saturation"
          (Sim.Mosfet.region nmos ~vgs:2.0 ~vds:4.0));
  ]

(* Finite-difference validation of the analytic derivatives: Newton's
   global convergence depends on these being right. *)
let mosfet_qcheck =
  let open QCheck in
  let bias = Gen.(pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0)) in
  let models = [ Netlist.Device.default_nmos; Netlist.Device.default_pmos ] in
  List.map
    (fun model ->
      let name =
        Printf.sprintf "mosfet %s derivatives match finite differences"
          model.Netlist.Device.mname
      in
      Test.make ~name ~count:500 (make bias) (fun (vgs, vds) ->
          let ev = mos_eval model ~w:10e-6 ~l:1e-6 in
          let e = ev ~vgs ~vds in
          let dh = 1e-7 in
          let e_g = ev ~vgs:(vgs +. dh) ~vds in
          let e_d = ev ~vgs ~vds:(vds +. dh) in
          let fd_gm = (e_g.ids -. e.ids) /. dh in
          let fd_gds = (e_d.ids -. e.ids) /. dh in
          let close a b = Float.abs (a -. b) <= 1e-4 +. (1e-3 *. Float.abs b) in
          close fd_gm e.gm && close fd_gds e.gds))
    models
  |> List.map Prop.to_alcotest

let waveform_tests =
  let wf =
    Sim.Waveform.make ~names:[| "a"; "b" |]
      ~samples:[ (0.0, [| 0.0; 1.0 |]); (1.0, [| 2.0; 1.0 |]); (2.0, [| 4.0; 0.0 |]) ]
  in
  [
    Alcotest.test_case "interpolates" `Quick (fun () ->
        checkf 1e-12 "mid" 1.0 (Sim.Waveform.value_at wf "a" 0.5);
        checkf 1e-12 "knot" 2.0 (Sim.Waveform.value_at wf "a" 1.0);
        checkf 1e-12 "clamp lo" 0.0 (Sim.Waveform.value_at wf "a" (-1.0));
        checkf 1e-12 "clamp hi" 4.0 (Sim.Waveform.value_at wf "a" 99.0));
    Alcotest.test_case "resample keeps endpoints" `Quick (fun () ->
        let r = Sim.Waveform.resample wf ~n:5 in
        checkf 1e-12 "start" 0.0 (Sim.Waveform.value_at r "a" 0.0);
        checkf 1e-12 "stop" 4.0 (Sim.Waveform.value_at r "a" 2.0);
        Alcotest.(check int) "len" 5 (Sim.Waveform.length r));
    Alcotest.test_case "min max" `Quick (fun () ->
        checkf 1e-12 "min" 0.0 (Sim.Waveform.signal_min wf "b");
        checkf 1e-12 "max" 1.0 (Sim.Waveform.signal_max wf "b"));
    Alcotest.test_case "min max propagate NaN" `Quick (fun () ->
        let bad =
          Sim.Waveform.make ~names:[| "a" |]
            ~samples:[ (0.0, [| 1.0 |]); (1.0, [| Float.nan |]); (2.0, [| 3.0 |]) ]
        in
        Alcotest.(check bool) "min is nan" true
          (Float.is_nan (Sim.Waveform.signal_min bad "a"));
        Alcotest.(check bool) "max is nan" true
          (Float.is_nan (Sim.Waveform.signal_max bad "a"));
        Alcotest.(check bool) "finite flags nan" false
          (Sim.Waveform.signal_finite bad "a"));
    Alcotest.test_case "signal_finite" `Quick (fun () ->
        Alcotest.(check bool) "clean data is finite" true
          (Sim.Waveform.signal_finite wf "b");
        let inf =
          Sim.Waveform.make ~names:[| "a" |]
            ~samples:[ (0.0, [| 1.0 |]); (1.0, [| Float.infinity |]) ]
        in
        Alcotest.(check bool) "inf flagged" false
          (Sim.Waveform.signal_finite inf "a"));
    Alcotest.test_case "rejects ragged rows" `Quick (fun () ->
        match Sim.Waveform.make ~names:[| "a" |] ~samples:[ (0.0, [| 1.0; 2.0 |]) ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let parse s = (Netlist.Parser.parse s).Netlist.Parser.circuit

let dc_tests =
  [
    Alcotest.test_case "voltage divider" `Quick (fun () ->
        let c = parse "div\nV1 in 0 10\nR1 in out 1k\nR2 out 0 1k\n.end\n" in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        checkf 1e-6 "out" 5.0 (Sim.Engine.voltage sol "out");
        checkf 1e-9 "source current" (-0.005) (Sim.Engine.branch_current sol "V1"));
    Alcotest.test_case "current source into resistor" `Quick (fun () ->
        let c = parse "isrc\nI1 0 out 1m\nR1 out 0 2k\n.end\n" in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        checkf 1e-6 "out" 2.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "inductor is a DC short" `Quick (fun () ->
        let c = parse "ldc\nV1 in 0 1\nL1 in out 1m\nR1 out 0 1k\n.end\n" in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        checkf 1e-6 "out" 1.0 (Sim.Engine.voltage sol "out");
        checkf 1e-9 "iL" 1e-3 (Sim.Engine.branch_current sol "L1"));
    Alcotest.test_case "capacitor is a DC open" `Quick (fun () ->
        let c = parse "cdc\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1n\nR2 out 0 1k\n.end\n" in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        checkf 1e-6 "out" 0.5 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "diode clamp near 0.6V" `Quick (fun () ->
        let c = parse "dclamp\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D IS=1e-14\n.end\n" in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        let v = Sim.Engine.voltage sol "out" in
        check_bool "plausible diode drop" true (v > 0.4 && v < 0.8));
    Alcotest.test_case "nmos inverter low output for high input" `Quick (fun () ->
        let c =
          parse
            "inv\nVDD vdd 0 5\nVIN in 0 5\nRD vdd out 10k\nM1 out in 0 0 NM W=10u L=1u\n.model NM NMOS VTO=1 KP=60u\n.end\n"
        in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        check_bool "low" true (Sim.Engine.voltage sol "out" < 0.5));
    Alcotest.test_case "nmos inverter high output for low input" `Quick (fun () ->
        let c =
          parse
            "inv\nVDD vdd 0 5\nVIN in 0 0\nRD vdd out 10k\nM1 out in 0 0 NM W=10u L=1u\n.model NM NMOS VTO=1 KP=60u\n.end\n"
        in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        checkf 1e-3 "high" 5.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "cmos inverter mid threshold" `Quick (fun () ->
        let c =
          parse
            ("cmosinv\nVDD vdd 0 5\nVIN in 0 2.5\n"
           ^ "M1 out in 0 0 NM W=10u L=1u\nM2 out in vdd vdd PM W=24u L=1u\n"
           ^ ".model NM NMOS VTO=0.8 KP=60u LAMBDA=0.02\n"
           ^ ".model PM PMOS VTO=-0.8 KP=25u LAMBDA=0.02\n.end\n")
        in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        let v = Sim.Engine.voltage sol "out" in
        check_bool "in transition region" true (v > 1.0 && v < 4.0));
  ]

let tran_tests =
  [
    Alcotest.test_case "rc charging matches analytic" `Quick (fun () ->
        (* tau = 1k * 1u = 1 ms; v(t) = 5(1 - exp(-t/tau)). *)
        let c = parse "rc\nV1 in 0 5\nR1 in out 1k\nC1 out 0 1u IC=0\n.end\n" in
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run c (Analysis.Tran { tstep = 1e-5; tstop = 5e-3; uic = true })))
        in
        List.iter
          (fun t ->
            let expect = 5.0 *. (1.0 -. exp (-.t /. 1e-3)) in
            let got = Sim.Waveform.value_at wf "out" t in
            checkf 0.02 (Printf.sprintf "v(%.0e)" t) expect got)
          [ 5e-4; 1e-3; 2e-3; 4e-3 ]);
    Alcotest.test_case "dc solves run past the transient limit" `Quick (fun () ->
        (* From zero, the dv clamp walks [in] to 40 V at 1 V per Newton
           iteration: the operating point is one solve of more than
           tran_max_iter iterations, with no gmin stepping. *)
        let c =
          parse "dclamp40\nV1 in 0 40\nR1 in out 10k\nD1 out 0 DX\n.model DX D IS=1e-14\n.end\n"
        in
        let obs = Obs.memory () in
        let sol = Sim.Engine.(Analysis.solution (run ~obs c Analysis.Op)) in
        checkf 1e-9 "in" 40.0 (Sim.Engine.voltage sol "in");
        let summary = Obs.Summary.of_events (Obs.drain obs) in
        (match List.assoc_opt "engine.newton.iters_per_solve" summary.Obs.Summary.samples with
        | Some st ->
          Alcotest.(check int) "one solve" 1 st.Obs.Summary.count;
          check_bool "longer than a transient solve" true
            (st.Obs.Summary.max > float_of_int Sim.Engine.tran_max_iter)
        | None -> Alcotest.fail "no Newton solve traced");
        check_bool "no gmin stepping" false
          (List.mem_assoc "engine.dc.gmin_stepping" summary.Obs.Summary.counters));
    Alcotest.test_case "a transient step needing more than the limit is halved"
      `Quick (fun () ->
        (* A 1 kV, 10 kHz sine moves [in] by up to 63 V per 1 us step, so
           long steps fail at tran_max_iter iterations each and are
           retried at half size; the RC low-pass output still follows the
           analytic response, 1 kV / (1 + j w RC) once the 10 us start-up
           transient has decayed. *)
        let c = parse "rcsin\nV1 in 0 SIN(0 1000 10k)\nR1 in out 1k\nC1 out 0 10n\n.end\n" in
        let obs = Obs.memory () in
        let r =
          Sim.Engine.run ~obs c
            (Sim.Engine.Analysis.Tran { tstep = 1e-6; tstop = 2e-4; uic = false })
        in
        let stats = Sim.Engine.Analysis.stats r in
        let counters = (Obs.Summary.of_events (Obs.drain obs)).Obs.Summary.counters in
        check_bool "rejected steps" true (stats.Sim.Engine.rejected_steps > 0);
        Alcotest.(check int)
          "each rejection spent the transient limit"
          (stats.Sim.Engine.rejected_steps * Sim.Engine.tran_max_iter)
          (List.assoc "engine.newton.wasted_iters" counters);
        let wf = Sim.Engine.Analysis.waveform r in
        let w = 2.0 *. Float.pi *. 1e4 and tau = 1e-5 in
        let gain = 1.0 /. sqrt (1.0 +. ((w *. tau) ** 2.0)) and lag = atan (w *. tau) in
        List.iter
          (fun t ->
            checkf 30.0 (Printf.sprintf "v(%.1e)" t)
              (1000.0 *. gain *. sin ((w *. t) -. lag))
              (Sim.Waveform.value_at wf "out" t))
          [ 1.2e-4; 1.4e-4; 1.6e-4; 1.8e-4 ]);
    Alcotest.test_case "a source jump does not stall the transient" `Quick
      (fun () ->
        (* Each circuit's source jumps 30 V (more than tran_max_iter dv
           clamps) across one step, and halving that step cannot shrink
           the jump: a UIC start from zeros, an ideal PULSE edge (its new
           value holds from the breakpoint on) and a PWL step (from just
           after its knot).  The output charges, tau = 100 ns, towards
           30 V from the jump at [t0], to within backward Euler's error
           at 10 ns steps. *)
        let rc source =
          parse (Printf.sprintf "jump\nV1 in 0 %s\nR1 in out 1k\nC1 out 0 100p IC=0\n.end\n" source)
        in
        List.iter
          (fun (what, source, uic, t0) ->
            let wf =
              Sim.Engine.(
                Analysis.waveform
                  (run (rc source) (Analysis.Tran { tstep = 1e-8; tstop = 2e-6; uic })))
            in
            List.iter
              (fun dt ->
                checkf 1.5
                  (Printf.sprintf "%s v(t0+%.0e)" what dt)
                  (30.0 *. (1.0 -. exp (-.dt /. 1e-7)))
                  (Sim.Waveform.value_at wf "out" (t0 +. dt)))
              [ 1e-7; 2e-7; 5e-7 ])
          [
            ("uic start", "30", true, 0.0);
            ("pulse edge", "PULSE(0 30 1u 0 0 2u 4u)", false, 1e-6);
            ("pwl step", "PWL(0 0 1u 0 1u 30 2u 30)", false, 1e-6);
          ]);
    Alcotest.test_case "rc discharging from IC" `Quick (fun () ->
        let c = parse "rc2\nR1 out 0 1k\nC1 out 0 1u IC=5\n.end\n" in
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run c (Analysis.Tran { tstep = 1e-5; tstop = 3e-3; uic = true })))
        in
        checkf 0.02 "v(1ms)" (5.0 *. exp (-1.0)) (Sim.Waveform.value_at wf "out" 1e-3));
    Alcotest.test_case "rl current rise" `Quick (fun () ->
        (* tau = L/R = 1 ms; i(t) = (V/R)(1-exp(-t/tau)). *)
        let c = parse "rl\nV1 in 0 1\nR1 in x 1\nL1 x 0 1m\n.end\n" in
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run c (Analysis.Tran { tstep = 1e-5; tstop = 5e-3; uic = true })))
        in
        checkf 0.01 "i(1ms)"
          (1.0 -. exp (-1.0))
          (Sim.Waveform.value_at wf "I(L1)" 1e-3));
    Alcotest.test_case "pulse drives rc" `Quick (fun () ->
        let c =
          parse
            "pl\nVIN in 0 PULSE(0 5 1u 10n 10n 10u 0)\nR1 in out 1k\nC1 out 0 100p IC=0\n.end\n"
        in
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run c (Analysis.Tran { tstep = 5e-8; tstop = 4e-6; uic = true })))
        in
        checkf 0.05 "still 0 before pulse" 0.0 (Sim.Waveform.value_at wf "out" 0.9e-6);
        (* 3 us after edge = 29 tau: fully settled. *)
        checkf 0.05 "settled" 5.0 (Sim.Waveform.value_at wf "out" 4e-6));
    Alcotest.test_case "lc oscillation period" `Quick (fun () ->
        (* L = 1 mH, C = 1 uF: f = 5.03 kHz; check the sign flips around a
           half period. *)
        let c = parse "lc\nL1 out 0 1m IC=0\nC1 out 0 1u IC=1\n.end\n" in
        let options =
          { Sim.Engine.default_options with integration = Sim.Engine.Trapezoidal }
        in
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run ~options c (Analysis.Tran { tstep = 2e-6; tstop = 3e-4; uic = true })))
        in
        let half = Float.pi *. sqrt (1e-3 *. 1e-6) in
        let v_half = Sim.Waveform.value_at wf "out" half in
        check_bool "inverted after half period" true (v_half < -0.8));
    Alcotest.test_case "uic starts from capacitor ICs" `Quick (fun () ->
        let c = parse "ic\nR1 out 0 1k\nC1 out 0 1u IC=3\n.end\n" in
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run c (Analysis.Tran { tstep = 1e-6; tstop = 1e-5; uic = true })))
        in
        checkf 0.01 "v(0)" 3.0 (Sim.Waveform.value_at wf "out" 0.0));
    Alcotest.test_case "backward euler also converges" `Quick (fun () ->
        let options =
          { Sim.Engine.default_options with integration = Sim.Engine.Backward_euler }
        in
        let c = parse "rc\nV1 in 0 5\nR1 in out 1k\nC1 out 0 1u IC=0\n.end\n" in
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run ~options c (Analysis.Tran { tstep = 1e-5; tstop = 2e-3; uic = true })))
        in
        checkf 0.05 "v(1ms)" (5.0 *. (1.0 -. exp (-1.0)))
          (Sim.Waveform.value_at wf "out" 1e-3));
    Alcotest.test_case "stats are populated" `Quick (fun () ->
        let c = parse "rc\nV1 in 0 5\nR1 in out 1k\nC1 out 0 1u IC=0\n.end\n" in
        let stats =
          Sim.Engine.(
            Analysis.stats (run c (Analysis.Tran { tstep = 1e-5; tstop = 1e-3; uic = true })))
        in
        check_bool "steps" true (stats.Sim.Engine.accepted_steps > 10);
        check_bool "iters" true (stats.Sim.Engine.newton_iterations >= stats.Sim.Engine.accepted_steps));
    Alcotest.test_case "invalid tstep rejected" `Quick (fun () ->
        (* An infinite tstop would step forever and a NaN compares false
           against every bound: both must be refused, not run. *)
        let c = parse "rc\nR1 a 0 1k\n.end\n" in
        List.iter
          (fun (tstep, tstop) ->
            match
              Sim.Engine.(
                Analysis.waveform (run c (Analysis.Tran { tstep; tstop; uic = true })))
            with
            | exception Invalid_argument _ -> ()
            | _ ->
              Alcotest.failf "expected Invalid_argument for tstep=%g tstop=%g" tstep tstop)
          [ (0.0, 1.0); (1e-6, Float.infinity); (Float.nan, 1.0) ]);
    Alcotest.test_case "breakpoints closer than eps are not stridden over" `Quick
      (fun () ->
        (* Two PWL knots 1e-19 s apart (well inside eps = tstop*1e-12)
           make a sharp rising edge at 1 us, followed by a fall at
           1.05 us - within one 1 us output step.  Popping only one stale
           breakpoint and keeping the unclipped step used to jump from
           1 us straight to 2 us, missing the 5 V plateau entirely. *)
        let edge = 1e-19 in
        let wave =
          Netlist.Wave.Pwl
            [ (0.0, 0.0); (1e-6, 0.0); (1e-6 +. edge, 5.0); (1.05e-6, 5.0);
              (1.05e-6 +. edge, 0.0); (4e-6, 0.0) ]
        in
        let c =
          Netlist.Circuit.of_devices "bp"
            [ Netlist.Device.V { name = "VIN"; np = "in"; nn = "0"; wave };
              Netlist.Device.R { name = "R1"; n1 = "in"; n2 = "0"; value = 1e3 } ]
        in
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run c (Analysis.Tran { tstep = 1e-6; tstop = 4e-6; uic = true })))
        in
        checkf 0.05 "plateau captured" 5.0 (Sim.Waveform.value_at wf "in" 1.05e-6);
        checkf 0.05 "back down after the pulse" 0.0
          (Sim.Waveform.value_at wf "in" 3e-6));
  ]

(* Compile [delta] as a patch of [s] and run [f] on it. *)
let with_patch s delta f =
  Sim.Engine.Session.with_patch s (Sim.Engine.Session.patch s delta) f

(* A delta of [c] that replaces devices by name and appends [added]. *)
let delta_of c ?(replace = []) added =
  let ix = Netlist.Circuit.index c in
  let at dev = (fst (Option.get (Netlist.Circuit.lookup ix (Netlist.Device.name dev))), dev) in
  { Netlist.Circuit.replaced = List.sort compare (List.map at replace); added }

let session_tests =
  let divider = parse "div\nV1 in 0 10\nR1 in out 1k\nR2 out 0 1k\n.end\n" in
  let v_out sol = Sim.Engine.voltage sol "out" in
  [
    Alcotest.test_case "solve_dc matches dc_operating_point" `Quick (fun () ->
        (* 10 V over two equal resistors: the session's solve and the
           one-shot analysis both give the analytic 5 V, up to the
           nanovolts the 1e-12 S gmin shunt on [out] costs. *)
        let s = Sim.Engine.Session.create divider in
        checkf 1e-8 "session" 5.0 (v_out (Sim.Engine.Session.solve_dc s));
        checkf 1e-8 "one-shot" 5.0
          (v_out Sim.Engine.(Analysis.solution (run divider Analysis.Op))));
    Alcotest.test_case "transient matches the standalone analysis" `Quick (fun () ->
        (* RC charge from 0 V towards 5 V, tau = 1 ms, against the analytic
           5 (1 - e^(-t/tau)).  Backward Euler's global error is first
           order: at step h it is about (h / 2 tau) (t / tau) 5 e^(-t/tau),
           at most 5 h / (2 e tau) ~ 9.2 mV (at t = tau) for the largest
           step, h = tstep = 10 us.  That bound is the tolerance. *)
        let c = parse "rc\nV1 in 0 5\nR1 in out 1k\nC1 out 0 1u IC=0\n.end\n" in
        let h = 1e-5 and tau = 1e-3 in
        let tol = 5.0 *. h /. (2.0 *. exp 1.0 *. tau) in
        let s = Sim.Engine.Session.create c in
        let wf_session, _ = Sim.Engine.Session.transient s ~tstep:h ~tstop:2e-3 ~uic:true in
        let wf_standalone =
          Sim.Engine.(
            Analysis.waveform (run c (Analysis.Tran { tstep = h; tstop = 2e-3; uic = true })))
        in
        List.iter
          (fun t ->
            let expect = 5.0 *. (1.0 -. exp (-.t /. tau)) in
            List.iter
              (fun (which, wf) ->
                checkf tol
                  (Printf.sprintf "%s v(%.0e)" which t)
                  expect
                  (Sim.Waveform.value_at wf "out" t))
              [ ("session", wf_session); ("one-shot", wf_standalone) ])
          [ 2e-4; 1e-3; 2e-3 ]);
    Alcotest.test_case "a probed run records only the observed signal" `Quick (fun () ->
        let c = parse "rc\nV1 in 0 PULSE(0 5 0 1u 1u 5u 10u)\nR1 in out 1k\nC1 out 0 1n\n.end\n" in
        let s = Sim.Engine.Session.create c in
        let run ?probe () = Sim.Engine.Session.transient ?probe s ~tstep:1e-7 ~tstop:4e-6 ~uic:true in
        let full, st = run () in
        let fed = ref 0 in
        let probe =
          { Sim.Engine.Session.observe = "out"; grid = [| 1e-6; 2e-6; 3e-6 |];
            feed = (fun _ _ -> incr fed; `Continue) }
        in
        let probed, st' = run ~probe () in
        Alcotest.(check (array string)) "one signal" [| "out" |] (Sim.Waveform.names probed);
        Alcotest.(check int) "every grid time fed" 3 !fed;
        check_bool "same steps" true (st = st');
        check_bool "same times" true (same_bits (Sim.Waveform.times full) (Sim.Waveform.times probed));
        check_bool "same samples" true
          (same_bits (Sim.Waveform.samples full "out") (Sim.Waveform.samples probed "out")));
    Alcotest.test_case "with_patch applies an added resistor and restores" `Quick
      (fun () ->
        let s = Sim.Engine.Session.create divider in
        let patched =
          delta_of divider [ Netlist.Device.R { name = "RF"; n1 = "out"; n2 = "0"; value = 1e3 } ]
        in
        (* out: 1k || 1k against 1k -> 10 * (500/1500). *)
        let v =
          with_patch s patched (fun s ->
              v_out (Sim.Engine.Session.solve_dc s))
        in
        checkf 1e-6 "patched" (10.0 /. 3.0) v;
        checkf 1e-6 "restored" 5.0 (v_out (Sim.Engine.Session.solve_dc s)));
    Alcotest.test_case "with_patch supports one new node" `Quick (fun () ->
        let s = Sim.Engine.Session.create divider in
        (* Break R2's ground leg through an extra 1k: out = 10 * 2/3. *)
        let patched =
          delta_of divider
            ~replace:[ Netlist.Device.R { name = "R2"; n1 = "out"; n2 = "nx"; value = 1e3 } ]
            [ Netlist.Device.R { name = "RB"; n1 = "nx"; n2 = "0"; value = 1e3 } ]
        in
        let v =
          with_patch s patched (fun s ->
              v_out (Sim.Engine.Session.solve_dc s))
        in
        checkf 1e-6 "patched" (20.0 /. 3.0) v);
    Alcotest.test_case "with_patch supports one new branch" `Quick (fun () ->
        let s = Sim.Engine.Session.create divider in
        let patched =
          delta_of divider
            [ Netlist.Device.V { name = "VB"; np = "out"; nn = "0"; wave = Netlist.Wave.Dc 0.0 } ]
        in
        let v =
          with_patch s patched (fun s ->
              v_out (Sim.Engine.Session.solve_dc s))
        in
        checkf 1e-9 "shorted" 0.0 v);
    Alcotest.test_case "two new nodes overflow the patch" `Quick (fun () ->
        let s = Sim.Engine.Session.create divider in
        let patched =
          delta_of divider
            ~replace:
              [ Netlist.Device.R { name = "R1"; n1 = "in"; n2 = "na"; value = 1e3 };
                Netlist.Device.R { name = "R2"; n1 = "nb"; n2 = "0"; value = 1e3 } ]
            []
        in
        (match
           with_patch s patched (fun s ->
               v_out (Sim.Engine.Session.solve_dc s))
         with
        | exception Sim.Engine.Patch_overflow _ -> ()
        | _ -> Alcotest.fail "expected Patch_overflow");
        (* The failed patch must not poison the session. *)
        checkf 1e-6 "still nominal" 5.0 (v_out (Sim.Engine.Session.solve_dc s)));
  ]

(* Property tests on whole analyses. *)
let engine_qcheck =
  let open QCheck in
  (* Random resistor ladders driven by one source: the solver must be
     linear (superposition) and must match the analytic series divider. *)
  let ladder_gen =
    Gen.(list_size (int_range 2 8) (float_range 100.0 100_000.0))
  in
  let ladder_circuit rs vin =
    let n = List.length rs in
    let devices =
      Netlist.Device.V { name = "V1"; np = "n0"; nn = "0"; wave = Netlist.Wave.Dc vin }
      :: List.mapi
           (fun i r ->
             let n1 = Printf.sprintf "n%d" i in
             let n2 = if i = n - 1 then "0" else Printf.sprintf "n%d" (i + 1) in
             Netlist.Device.R { name = Printf.sprintf "R%d" i; n1; n2; value = r })
           rs
    in
    Netlist.Circuit.of_devices "ladder" devices
  in
  [
    Test.make ~name:"series ladder matches analytic divider" ~count:100
      (make ~print:(fun l -> String.concat ";" (List.map string_of_float l)) ladder_gen)
      (fun rs ->
        let vin = 10.0 in
        let sol =
          Sim.Engine.(Analysis.solution (run (ladder_circuit rs vin) Analysis.Op))
        in
        let total = List.fold_left ( +. ) 0.0 rs in
        let rec below i = function
          | [] -> []
          | r :: rest -> (i, r) :: below (i + 1) rest
        in
        List.for_all
          (fun (i, _) ->
            let drop =
              List.fold_left ( +. ) 0.0 (List.filteri (fun j _ -> j < i) rs)
            in
            let expect = vin *. (1.0 -. (drop /. total)) in
            Float.abs (Sim.Engine.voltage sol (Printf.sprintf "n%d" i) -. expect)
            < 1e-6 +. (1e-6 *. Float.abs expect))
          (below 0 rs));
    Test.make ~name:"linear solve obeys superposition" ~count:100
      (make ~print:(fun l -> String.concat ";" (List.map string_of_float l)) ladder_gen)
      (fun rs ->
        let v_at vin node =
          Sim.Engine.(voltage (Analysis.solution (run (ladder_circuit rs vin) Analysis.Op)) node)
        in
        let node = "n1" in
        let a = v_at 3.0 node and b = v_at 7.0 node and ab = v_at 10.0 node in
        Float.abs (a +. b -. ab) < 1e-6);
    Test.make ~name:"capacitor ramps linearly under constant current" ~count:50
      (make ~print:string_of_float Gen.(float_range 1e-12 1e-9))
      (fun c ->
        let circuit =
          Netlist.Circuit.of_devices "ramp"
            [ Netlist.Device.I
                { name = "I1"; np = "0"; nn = "out"; wave = Netlist.Wave.Dc 1e-6 };
              Netlist.Device.C { name = "C1"; n1 = "out"; n2 = "0"; value = c; ic = Some 0.0 } ]
        in
        let tstop = c *. 2.0 /. 1e-6 in
        (* time for 2 V at 1 uA *)
        let wf =
          Sim.Engine.(
            Analysis.waveform
              (run circuit (Analysis.Tran { tstep = (tstop /. 100.0); tstop; uic = true })))
        in
        let v = Sim.Waveform.value_at wf "out" (tstop /. 2.0) in
        Float.abs (v -. 1.0) < 0.02);
  ]
  |> List.map Prop.to_alcotest

let robustness_tests =
  [
    Alcotest.test_case "conflicting ideal sources do not converge" `Quick (fun () ->
        let c = parse "bad\nV1 a 0 1\nV2 a 0 2\n.end\n" in
        match Sim.Engine.(Analysis.solution (run c Analysis.Op)) with
        | exception Sim.Engine.Sim_error _ -> ()
        | _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "zero-valued resistor rejected" `Quick (fun () ->
        let c =
          Netlist.Circuit.of_devices "z"
            [ Netlist.Device.R { name = "R1"; n1 = "a"; n2 = "0"; value = 0.0 } ]
        in
        match Sim.Engine.(Analysis.solution (run c Analysis.Op)) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "floating node pinned by gmin" `Quick (fun () ->
        let c = parse "float\nV1 a 0 5\nR1 a b 1k\nC1 c 0 1p\n.end\n" in
        let sol = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        (* b carries no current -> sits at a; c floats -> gmin pins it. *)
        checkf 1e-3 "b" 5.0 (Sim.Engine.voltage sol "b");
        checkf 1e-3 "c" 0.0 (Sim.Engine.voltage sol "c"));
    Alcotest.test_case "integration error shrinks with the step" `Quick (fun () ->
        (* Backward Euler is first order: both steps must bracket the
           analytic value, the finer one much closer. *)
        let c = parse "rc\nV1 in 0 5\nR1 in out 1k\nC1 out 0 1u IC=0\n.end\n" in
        let v tstep =
          let wf =
            Sim.Engine.(
              Analysis.waveform
                (run c (Analysis.Tran { tstep; tstop = 2e-3; uic = true })))
          in
          Sim.Waveform.value_at wf "out" 1e-3
        in
        let exact = 5.0 *. (1.0 -. exp (-1.0)) in
        let e_fine = Float.abs (v 1e-5 -. exact)
        and e_coarse = Float.abs (v 1e-4 -. exact) in
        check_bool "fine accurate" true (e_fine < 0.02);
        check_bool "coarse sane" true (e_coarse < 0.15);
        check_bool "order holds" true (e_fine < e_coarse));
  ]

(* MNA bookkeeping on degenerate shapes: circuits whose unknowns are all
   branch currents, shared node names across devices, and devices wired
   entirely to ground. *)
let mna_edge_tests =
  [
    Alcotest.test_case "branch-only circuit (V and L)" `Quick (fun () ->
        let c =
          Netlist.Circuit.of_devices "branches"
            [ Netlist.Device.V
                { name = "V1"; np = "a"; nn = "0"; wave = Netlist.Wave.Dc 1.0 };
              Netlist.Device.L
                { name = "L1"; n1 = "a"; n2 = "0"; value = 1e-3; ic = None } ]
        in
        let m = Sim.Mna.make c in
        Alcotest.(check int) "node count" 1 (Sim.Mna.node_count m);
        Alcotest.(check int) "size" 3 (Sim.Mna.size m);
        Alcotest.(check int)
          "branches" 2
          (Array.length (Sim.Mna.branch_names m));
        (* Branch ids live past the nodes and carry I(...) names. *)
        List.iter
          (fun d ->
            let i = Sim.Mna.branch_id m d in
            check_bool "branch id in range" true
              (i >= Sim.Mna.node_count m && i < Sim.Mna.size m);
            Alcotest.(check string)
              "branch name" ("I(" ^ d ^ ")")
              (Sim.Mna.unknown_name m i))
          [ "V1"; "L1" ]);
    Alcotest.test_case "duplicate node names index once" `Quick (fun () ->
        let c =
          Netlist.Circuit.of_devices "dup"
            [ Netlist.Device.R { name = "R1"; n1 = "a"; n2 = "b"; value = 1e3 };
              Netlist.Device.R { name = "R2"; n1 = "b"; n2 = "a"; value = 1e3 };
              Netlist.Device.C
                { name = "C1"; n1 = "a"; n2 = "0"; value = 1e-9; ic = None } ]
        in
        let m = Sim.Mna.make c in
        Alcotest.(check int) "node count" 2 (Sim.Mna.node_count m);
        Alcotest.(check int) "size" 2 (Sim.Mna.size m);
        (* node_id and node_names/unknown_name agree index by index. *)
        Array.iteri
          (fun i name ->
            Alcotest.(check int) ("id of " ^ name) i (Sim.Mna.node_id m name);
            Alcotest.(check string) "name" name (Sim.Mna.unknown_name m i))
          (Sim.Mna.node_names m));
    Alcotest.test_case "ground-only ports yield no unknowns" `Quick (fun () ->
        let c =
          Netlist.Circuit.of_devices "gnd"
            [ Netlist.Device.R { name = "R1"; n1 = "0"; n2 = "0"; value = 1e3 } ]
        in
        let m = Sim.Mna.make c in
        Alcotest.(check int) "size" 0 (Sim.Mna.size m);
        Alcotest.(check int) "ground id" (-1) (Sim.Mna.node_id m "0");
        Alcotest.(check string) "ground name" "0" (Sim.Mna.unknown_name m (-1)));
    Alcotest.test_case "ground-to-ground source still owns a branch" `Quick
      (fun () ->
        let c =
          Netlist.Circuit.of_devices "gndv"
            [ Netlist.Device.V
                { name = "V1"; np = "0"; nn = "0"; wave = Netlist.Wave.Dc 1.0 } ]
        in
        let m = Sim.Mna.make c in
        Alcotest.(check int) "node count" 0 (Sim.Mna.node_count m);
        Alcotest.(check int) "size" 1 (Sim.Mna.size m);
        Alcotest.(check int) "branch id" 0 (Sim.Mna.branch_id m "V1");
        Alcotest.(check string) "name" "I(V1)" (Sim.Mna.unknown_name m 0));
  ]

(* One stamping pass through the solver's slot interface: declare the
   coordinates as targets, open the pass (compiling the pattern), and
   write every entry through its resolved slot. *)
let sparse_stamp sp ~n entries rhs =
  let keys = Array.of_list (List.map (fun (i, j, _) -> Sim.Sparse.key sp i j) entries) in
  let slots = Sim.Sparse.begin_stamp sp ~n ~tran:false (Sim.Sparse.targets keys) in
  let vals = Sim.Sparse.values sp in
  List.iteri (fun k (_, _, v) -> vals.(slots.(k)) <- vals.(slots.(k)) +. v) entries;
  let b = Sim.Sparse.rhs sp in
  List.iter (fun (i, v) -> b.(i) <- b.(i) +. v) rhs

(* Node voltages of the retired dense LU backend, printed with %.17g:
   the 4x4 grid's DC point with the drive source swept to 5 V, and the
   20-section diode ladder's transient at three times. *)
let dense_grid_5v =
  [|
    [| 5.0; 4.7891565949789499; 4.6686746516644266; 4.6084336811893936 |];
    [| 4.7891565949789516; 4.6987951380615813; 4.608433683493609; 4.548192715322795 |];
    [| 4.6686746516644275; 4.6084336834936099; 4.5180722335340722; 4.4277107858335727 |];
    [| 4.6084336811893936; 4.5481927153227941; 4.4277107858335718; 4.2168674130715607 |];
  |]

let dense_ladder =
  [
    ("n1", [ (5e-7, 0.0); (1.2e-6, 2.7639319328826435); (2e-6, 4.0795556636534789) ]);
    ("n10", [ (5e-7, 0.0); (1.2e-6, 0.0018087306579483208); (2e-6, 0.14851514831910073) ]);
    ( "n20",
      [ (5e-7, 0.0); (1.2e-6, 3.0401803821898096e-07); (2e-6, 0.00069463600331089528) ] );
  ]

(* The solver itself: its stamp/compile/factor lifecycle, and whole
   analyses against the answers of the dense backend it replaced. *)
let solver_tests =
  [
    Alcotest.test_case "sparse solves a stamped 2x2" `Quick (fun () ->
        let sp = Sim.Sparse.create ~capacity:2 in
        sparse_stamp sp ~n:2
          [ (0, 0, 2.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0) ]
          [ (0, 5.0); (1, 10.0) ];
        Sim.Sparse.factor_solve sp;
        let x = Sim.Sparse.rhs sp in
        checkf 1e-12 "x0" 1.0 x.(0);
        checkf 1e-12 "x1" 3.0 x.(1));
    Alcotest.test_case "sparse refactorises on a stable pattern" `Quick (fun () ->
        let sp = Sim.Sparse.create ~capacity:3 in
        let solve d =
          sparse_stamp sp ~n:3
            [ (0, 0, d); (1, 1, d); (2, 2, d); (0, 2, 1.0); (2, 0, 1.0) ]
            [ (0, 1.0); (1, 1.0); (2, 1.0) ];
          Sim.Sparse.factor_solve sp;
          Array.sub (Sim.Sparse.rhs sp) 0 3
        in
        let last = List.fold_left (fun _ round -> solve (4.0 +. float_of_int round)) [||] [ 1; 2; 3 ] in
        (* The fourth round repeats the third's values: its factors are
           the third's refactorisation, reused. *)
        check_bool "a reused solve is bit-identical" true (same_bits last (solve 7.0));
        let { Sim.Sparse.full; refactor; reuse; symbolic; _ } = Sim.Sparse.stats sp in
        Alcotest.(check int) "one full factorisation" 1 full;
        Alcotest.(check int) "two refactorisations" 2 refactor;
        Alcotest.(check int) "one reuse" 1 reuse;
        Alcotest.(check int) "every solve is exactly one of them" 4 (full + refactor + reuse);
        Alcotest.(check int) "one symbolic pass" 1 symbolic);
    Alcotest.test_case "sparse raises Singular on a rank-1 system" `Quick
      (fun () ->
        let sp = Sim.Sparse.create ~capacity:2 in
        sparse_stamp sp ~n:2 [ (0, 0, 1.0); (0, 1, 2.0); (1, 0, 2.0); (1, 1, 4.0) ] [];
        match Sim.Sparse.factor_solve sp with
        | exception Sim.Sparse.Singular i ->
            check_bool "original index" true (i = 0 || i = 1)
        | () -> Alcotest.fail "expected Singular");
    Alcotest.test_case "dense and sparse agree on a grid DC point" `Quick
      (fun () ->
        (* The drive is a pulse that starts at 0 V, so the operating
           point is all zero; the swept point at 5 V is the real check. *)
        let c = Synth.Circuit_synth.resistor_grid ~rows:4 ~cols:4 () in
        let op = Sim.Engine.(Analysis.solution (run c Analysis.Op)) in
        let swept =
          match
            Sim.Engine.(
              Analysis.sweep
                (run c (Analysis.Dc_sweep { source = "vdrive"; values = [ 5.0 ] })))
          with
          | [ (_, sol) ] -> sol
          | _ -> Alcotest.fail "expected one sweep point"
        in
        for r = 0 to 3 do
          for col = 0 to 3 do
            let node = Printf.sprintf "g%d_%d" r col in
            checkf 1e-9 node 0.0 (Sim.Engine.voltage op node);
            checkf 1e-9 node dense_grid_5v.(r).(col) (Sim.Engine.voltage swept node)
          done
        done);
    Alcotest.test_case "dense and sparse agree on a nonlinear transient" `Quick
      (fun () ->
        let c = Synth.Circuit_synth.rc_ladder ~diodes:true ~sections:20 () in
        let ws =
          Sim.Engine.(
            Analysis.waveform
              (run c (Analysis.Tran { tstep = 1e-7; tstop = 2e-6; uic = false })))
        in
        List.iter
          (fun (node, points) ->
            List.iter
              (fun (t, v) ->
                checkf 1e-9
                  (Printf.sprintf "%s @ %.1e" node t)
                  v (Sim.Waveform.value_at ws node t))
              points)
          dense_ladder);
    Alcotest.test_case "sparse session patches reuse the pattern" `Quick (fun () ->
        let divider = parse "div\nV1 in 0 10\nR1 in out 1k\nR2 out 0 1k\n.end\n" in
        let v_out sol = Sim.Engine.voltage sol "out" in
        let s = Sim.Engine.Session.create divider in
        checkf 1e-6 "nominal" 5.0 (v_out (Sim.Engine.Session.solve_dc s));
        let patched =
          delta_of divider [ Netlist.Device.R { name = "RF"; n1 = "out"; n2 = "0"; value = 1e3 } ]
        in
        let v =
          with_patch s patched (fun s ->
              v_out (Sim.Engine.Session.solve_dc s))
        in
        checkf 1e-6 "patched" (10.0 /. 3.0) v;
        (* A patch that grows the system exercises the identity-padded
           overlay rows of the shared pattern. *)
        let grown =
          delta_of divider
            ~replace:[ Netlist.Device.R { name = "R2"; n1 = "out"; n2 = "nx"; value = 1e3 } ]
            [ Netlist.Device.R { name = "RB"; n1 = "nx"; n2 = "0"; value = 1e3 } ]
        in
        let v =
          with_patch s grown (fun s ->
              v_out (Sim.Engine.Session.solve_dc s))
        in
        checkf 1e-6 "grown patch" (20.0 /. 3.0) v;
        checkf 1e-6 "restored" 5.0 (v_out (Sim.Engine.Session.solve_dc s)));
    Alcotest.test_case "singular failure names the offending unknown" `Quick
      (fun () ->
        let c = parse "bad\nV1 a 0 1\nV2 a 0 2\n.end\n" in
        match Sim.Engine.(Analysis.solution (run c Analysis.Op)) with
        | exception Sim.Engine.Sim_error (Sim.Engine.Singular_matrix, detail) ->
            let mentions s =
              let ls = String.length s and ld = String.length detail in
              let rec scan i = i >= 0 && (String.sub detail i ls = s || scan (i - 1)) in
              ld >= ls && scan (ld - ls)
            in
            check_bool
              (Printf.sprintf "detail names an unknown: %s" detail)
              true
              (mentions "at unknown ");
            check_bool
              (Printf.sprintf "detail carries a circuit name: %s" detail)
              true
              (mentions "a" || mentions "I(V1)" || mentions "I(V2)")
        | exception (Sim.Engine.Sim_error _ as e) -> raise e
        | _ -> Alcotest.fail "expected Singular_matrix");
  ]

(* --- The stamp plan against a naive assembly ---------------------------- *)

(* A test-local MNA assembly of a device list, written entry by entry the
   way the seed stamped: every coordinate accumulates its additions in
   stamp order, starting from [init (i, j)].  [row] maps a node or branch
   name to its unknown (ground: -1). *)
let naive_assembly ~options ~mode ~prev ~row ~node_rows ~init devices v =
  let open Sim.Engine in
  let cells = Hashtbl.create 64 and rhs = Array.make (Array.length v) 0.0 in
  let add i j x =
    if i >= 0 && j >= 0 then begin
      let old = match Hashtbl.find_opt cells (i, j) with Some y -> y | None -> init (i, j) in
      Hashtbl.replace cells (i, j) (old +. x)
    end
  in
  let add_rhs i x = if i >= 0 then rhs.(i) <- rhs.(i) +. x in
  let cond i j g =
    add i i g;
    add j j g;
    add i j (-.g);
    add j i (-.g)
  in
  let gv w i = if i < 0 then 0.0 else w.(i) in
  let cap i j c =
    match mode with
    | `Dc _ -> ()
    | `Tran (h, _) ->
      (* State as a transient start sets it: the previous voltage across,
         no previous current. *)
      let q = gv prev i -. gv prev j and f = 0.0 in
      let geq, const =
        match options.integration with
        | Backward_euler -> let geq = c /. h in (geq, geq *. q)
        | Trapezoidal -> let geq = 2.0 *. c /. h in (geq, (geq *. q) +. f)
      in
      cond i j geq;
      add_rhs i const;
      add_rhs j (-.const)
  in
  let source wave =
    match mode with
    | `Dc scale -> scale *. Netlist.Wave.dc_value wave
    | `Tran (_, time) -> Netlist.Wave.value wave time
  in
  let gmin = options.gmin in
  List.iter
    (fun dev ->
      match (dev : Netlist.Device.t) with
      | R { n1; n2; value; _ } -> cond (row n1) (row n2) (1.0 /. value)
      | C { n1; n2; value; _ } -> cap (row n1) (row n2) value
      | L { name; n1; n2; value; _ } ->
        let i = row n1 and j = row n2 and br = row ("I(" ^ name ^ ")") in
        add i br 1.0;
        add j br (-1.0);
        add br i 1.0;
        add br j (-1.0);
        (match mode with
        | `Dc _ -> ()
        | `Tran (h, _) ->
          let q = prev.(br) and f = gv prev i -. gv prev j in
          (match options.integration with
          | Backward_euler ->
            let r = value /. h in
            add br br (-.r);
            add_rhs br (-.r *. q)
          | Trapezoidal ->
            let r = 2.0 *. value /. h in
            add br br (-.r);
            add_rhs br ((-.r *. q) -. f)))
      | V { name; np; nn; wave } ->
        let i = row np and j = row nn and br = row ("I(" ^ name ^ ")") in
        add i br 1.0;
        add j br (-1.0);
        add br i 1.0;
        add br j (-1.0);
        add_rhs br (source wave)
      | I { np; nn; wave; _ } ->
        let cur = source wave in
        add_rhs (row np) (-.cur);
        add_rhs (row nn) cur
      | D { na; nc; model; _ } ->
        let i = row na and j = row nc in
        let nvt = model.n_emission *. 0.025852 in
        let vd = gv v i -. gv v j in
        let x = vd /. nvt in
        let e, de = if x > 40.0 then (exp 40.0 *. (1.0 +. x -. 40.0), exp 40.0) else (exp x, exp x) in
        let id = model.is_sat *. (e -. 1.0) in
        let gd = (model.is_sat *. de /. nvt) +. gmin in
        let ieq = id -. (gd *. vd) in
        cond i j gd;
        add_rhs i (-.ieq);
        add_rhs j ieq
      | M { d; g; s; model; w; l; _ } ->
        let d = row d and g = row g and s = row s in
        let cg = 0.5 *. model.cox *. w *. l in
        cap g s cg;
        cap g d cg;
        let vgs = gv v g -. gv v s and vds = gv v d -. gv v s in
        let e = mos_eval model ~w ~l ~vgs ~vds in
        let gds = e.gds +. gmin in
        let ieq = e.ids -. (e.gm *. vgs) -. (gds *. vds) in
        add d d gds;
        add d g e.gm;
        add d s (-.(e.gm +. gds));
        add s d (-.gds);
        add s g (-.e.gm);
        add s s (e.gm +. gds);
        add_rhs d (-.ieq);
        add_rhs s ieq)
    devices;
  List.iter
    (fun i ->
      add i i gmin;
      match mode with
      | `Tran (h, _) when options.cmin > 0.0 ->
        let geq = options.cmin /. h in
        add i i geq;
        add_rhs i (geq *. prev.(i))
      | `Tran _ | `Dc _ -> ())
    node_rows;
  (cells, rhs)

(* The solver-bench generators: RC ladders (with diodes when [diodes])
   and resistor grids, with or without capacitors. *)
let synth_circuit_gen ~diodes =
  let open QCheck.Gen in
  frequency
    [
      (1, map (fun n -> Synth.Circuit_synth.rc_ladder ~diodes ~sections:n ()) (int_range 1 17));
      ( 1,
        map2
          (fun (r, c) caps -> Synth.Circuit_synth.resistor_grid ~caps ~rows:r ~cols:c ())
          (pair (int_range 2 4) (int_range 2 4))
          bool );
    ]

(* Circuits the plan must assemble: the solver-bench generators, small
   random MOS/RC circuits of the kind Row_synth lays out (plus an
   inductor, a current source and a diode, so every device kind is
   stamped), and the paper's VCO. *)
let plan_circuit_gen =
  let open QCheck.Gen in
  let nets = [ "0"; "vdd"; "a"; "b"; "c"; "d" ] in
  let net = oneofl nets in
  let mos i =
    map
      (fun (p, (d, g, s), w_um) ->
        let model = if p then Netlist.Device.default_pmos else Netlist.Device.default_nmos in
        Netlist.Device.M
          { name = Printf.sprintf "M%d" i; d; g; s; b = (if p then "vdd" else "0"); model;
            w = float_of_int w_um *. 1e-6; l = 1e-6 })
      (triple bool (triple net net net) (int_range 2 40))
  in
  let random_mos =
    int_range 1 6 >>= fun n ->
    map2
      (fun ms (a, b) ->
        Netlist.Circuit.of_devices "random"
          ([ Netlist.Device.V
               { name = "VDD"; np = "vdd"; nn = "0";
                 wave = Netlist.Wave.Pulse
                     { v1 = 0.0; v2 = 5.0; delay = 0.0; rise = 5e-8; fall = 5e-8;
                       width = 1e-6; period = 0.0 } };
             Netlist.Device.C { name = "C1"; n1 = "a"; n2 = "0"; value = 5e-13; ic = None };
             Netlist.Device.L { name = "L1"; n1 = a; n2 = "b"; value = 1e-6; ic = None };
             Netlist.Device.I { name = "I1"; np = "c"; nn = b; wave = Netlist.Wave.Dc 1e-5 };
             Netlist.Device.D
               { name = "D1"; na = "d"; nc = "0"; model = Netlist.Device.default_diode };
             Netlist.Device.R { name = "R1"; n1 = "vdd"; n2 = "d"; value = 1e4 } ]
          @ ms))
      (flatten_l (List.init n mos))
      (pair net net)
  in
  frequency
    [
      (3, random_mos);
      (2, synth_circuit_gen ~diodes:true);
      (1, return (Vco.Schematic.schematic ()));
    ]

(* A fault delta of [c]: none, an overlay-branch bridge (source model) or
   a resistive one, an overlay-node open (resistor or source model), or a
   stuck-open transistor. *)
let plan_patch c pick =
  let ix = Netlist.Circuit.index c in
  let devices = Array.of_list (Netlist.Circuit.devices c) in
  let nets = Array.of_list (List.filter (fun n -> n <> "0") (Netlist.Circuit.nodes c)) in
  let at k a = a.(k mod Array.length a) in
  let fault kind = Faults.Fault.make ~id:"#p" ~kind ~mechanism:"test" () in
  let bridge model =
    let a = at pick nets and b = at (pick / 7) nets in
    Faults.Inject.delta ~model ix (fault (Faults.Fault.Bridge { net_a = a; net_b = if a = b then "0" else b }))
  in
  let break model =
    let dev = at (pick / 3) devices in
    let ports = List.mapi (fun p n -> (p, n)) (Netlist.Device.nodes dev) in
    match List.filter (fun (_, n) -> n <> "0") ports with
    | [] -> Netlist.Circuit.unchanged
    | ps ->
      let port, net = List.nth ps (pick mod List.length ps) in
      Faults.Inject.delta ~model ix
        (fault
           (Faults.Fault.Break
              { net; moved = [ { Faults.Fault.device = Netlist.Device.name dev; port } ] }))
  in
  match pick mod 6 with
  | 0 -> Netlist.Circuit.unchanged
  | 1 -> bridge Faults.Inject.Source
  | 2 -> bridge Faults.Inject.default_resistor
  | 3 -> break Faults.Inject.default_resistor
  | 4 -> break Faults.Inject.Source
  | _ -> (
    match Array.to_list devices |> List.filter (function Netlist.Device.M _ -> true | _ -> false) with
    | [] -> Netlist.Circuit.unchanged
    | ms ->
      Faults.Inject.delta ~model:Faults.Inject.Source ix
        (fault (Faults.Fault.Stuck_open { device = Netlist.Device.name (List.nth ms (pick mod List.length ms)) })))

(* [x] agrees with [want] to [tol] relative, measured through the
   system [cells] x = [rhs] that both solve: |A (x - want)| <= tol (|A|
   |want| + |rhs|) in the infinity norm.  A componentwise comparison
   would measure the system's conditioning instead of the solver: with
   gmin-pinned nodes and 100 S bridges two backward-stable solvers
   differ by up to 1e-3 relative on generated cases whose residuals are
   both below 1e-16. *)
let agree tol ~n cells rhs want x =
  let norm v = Array.fold_left (fun m y -> Float.max m (Float.abs y)) 0.0 v in
  let diff = Array.make n 0.0 and row_abs = Array.make n 0.0 in
  Hashtbl.iter
    (fun (i, j) a ->
      diff.(i) <- diff.(i) +. (a *. (x.(j) -. want.(j)));
      row_abs.(i) <- row_abs.(i) +. Float.abs a)
    cells;
  norm diff <= tol *. ((norm row_abs *. norm want) +. norm (Array.sub rhs 0 n))

(* The dense reference oracle: the test-local [Lu] on an [n]x[n] copy of
   the cells. *)
let lu_solve ~n cells rhs =
  let a = Array.make (n * n) 0.0 in
  Hashtbl.iter (fun (i, j) x -> a.((i * n) + j) <- x) cells;
  match Lu.solve_copy a (Array.sub rhs 0 n) with
  | x -> Ok x
  | exception Lu.Singular i -> Error i

(* The unknowns of a session's active view: their count, the row of a
   node or branch name (ground: -1), and the node rows. *)
let unknown_rows s =
  let names = Sim.Engine.Private.unknowns s in
  let n = Array.length names in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  let row name = if name = Netlist.Device.ground then -1 else Hashtbl.find index name in
  let node_rows =
    List.filter
      (fun i -> not (String.length names.(i) > 2 && String.sub names.(i) 0 2 = "I("))
      (List.init n Fun.id)
  in
  (n, row, node_rows)

(* One session per case: a DC pass, a transient pass (the pattern grows
   by the companion models, so the matrix is decompiled and recompiled)
   and a second transient pass (the steady-state slots and a numeric
   refactorisation).  Each pass must equal the naive assembly bit for
   bit, and its solution must pass [solution_ok ~n cells rhs] against
   the naive system's, which [oracle n] (made once per session, for [n]
   unknowns) solves outside the plan. *)
let plan_matches_naive ~oracle ~solution_ok ~integration c delta seed =
  let options = { Sim.Engine.default_options with integration } in
  let s = Sim.Engine.Session.create ~options c in
  let rng = Random.State.make [| seed |] in
  with_patch s delta (fun s ->
      let n, row, node_rows = unknown_rows s in
      let devices = Netlist.Circuit.devices (Netlist.Circuit.materialise c delta) in
      let vector () = Array.init n (fun _ -> Random.State.float rng 6.0 -. 1.0) in
      (* The stored cells of the previous pass (the pattern), whose kept
         cells restart at +0.0 while a cell first seen takes its first
         addend as is (starts at -0.0). *)
      let pattern = Hashtbl.create 64 in
      let solve = oracle n in
      let check mode =
        let prev = vector () and v = vector () in
        let init key = if Hashtbl.mem pattern key then 0.0 else -0.0 in
        let cells, rhs =
          naive_assembly ~options ~mode ~prev ~row ~node_rows ~init devices v
        in
        let got = Sim.Engine.Private.assemble s ~mode ~prev v in
        let stored = Hashtbl.create 64 in
        let cells_ok =
          List.for_all
            (fun (i, j, x) ->
              Hashtbl.replace stored (i, j) ();
              let want = match Hashtbl.find_opt cells (i, j) with Some y -> y | None -> 0.0 in
              bits want = bits x)
            got.cells
          && Hashtbl.fold (fun key _ ok -> ok && Hashtbl.mem stored key) cells true
        in
        Hashtbl.reset pattern;
        Hashtbl.iter (fun key () -> Hashtbl.replace pattern key ()) stored;
        cells_ok && same_bits rhs got.rhs
        && solution_ok ~n cells rhs (solve cells rhs) got.solution
      in
      let h = 1e-9 *. (1.0 +. Random.State.float rng 9.0) in
      check (`Dc (0.5 +. Random.State.float rng 0.5))
      && check (`Tran (h, 3e-8))
      && check (`Tran (h /. 2.0, 6e-8)))

(* The entries of naive [cells], and their targets in solver [sp]. *)
let cell_targets sp cells =
  let entries = Hashtbl.fold (fun (i, j) x acc -> (i, j, x) :: acc) cells [] in
  let keys = Array.of_list (List.map (fun (i, j, _) -> Sim.Sparse.key sp i j) entries) in
  (entries, Sim.Sparse.targets keys)

(* One solve of [n] unknowns through [sp]: the [entries] written into
   their slots of [tg], then [rhs]. *)
let sparse_solve sp ~n entries tg rhs =
  let slots = Sim.Sparse.begin_stamp sp ~n ~tran:false tg in
  let vals = Sim.Sparse.values sp in
  List.iteri (fun k (_, _, x) -> vals.(slots.(k)) <- x) entries;
  Array.blit rhs 0 (Sim.Sparse.rhs sp) 0 n;
  match Sim.Sparse.factor_solve sp with
  | () -> Ok (Array.sub (Sim.Sparse.rhs sp) 0 n)
  | exception Sim.Sparse.Singular i -> Error i

(* The reference [Sparse] instance fed the naive entries in the same
   sequence of passes: the plan's solution must match it bit for bit. *)
let sparse_reference n =
  let reference = Sim.Sparse.create ~capacity:n in
  fun cells rhs ->
    let entries, tg = cell_targets reference cells in
    sparse_solve reference ~n entries tg rhs

let plan_case =
  QCheck.make
    ~print:(fun (c, pick, seed, trap) ->
      Format.asprintf "pick=%d seed=%d trap=%b@.%a" pick seed trap Netlist.Circuit.pp c)
    QCheck.Gen.(quad plan_circuit_gen (int_bound 10_000) (int_bound 10_000) bool)

let integration_of trap = if trap then Sim.Engine.Trapezoidal else Sim.Engine.Backward_euler

(* Faults move conductances by many orders of magnitude (a 10 mOhm
   bridge is 100 S, a 100 MOhm open 1e-8 S) or add a branch row with a
   zero diagonal (a 0 V bridge), while a campaign refactorises every
   variant with the pivot order of the first full factorisation.  One
   session-shaped solver primed with the union of the nominal circuit
   and its fault patches (resistor-model bridge and open, source-model
   bridge and open, stuck-open) factors the nominal system, then
   refactorises each fault's system in turn; each solution must agree
   with the dense [Lu] within 1e-9 relative, unless the
   refactorisation gave up its stale pivots and factored afresh.  The
   property runs 1,000 cases: a refactorisation that tests its pivots
   only against 1e-30 fails it on ten seeds out of ten at that count,
   but on only four out of ten at 200. *)
let frozen_pivots_hold ~integration c pick seed =
  let options = { Sim.Engine.default_options with integration } in
  let s = Sim.Engine.Session.create ~options c in
  let rng = Random.State.make [| seed |] in
  let base = Array.length (Sim.Engine.Private.unknowns s) in
  let v = Array.init (base + 2) (fun _ -> Random.State.float rng 6.0 -. 1.0) in
  let prev = Array.init (base + 2) (fun _ -> Random.State.float rng 6.0 -. 1.0) in
  let mode =
    if Random.State.bool rng then `Dc 1.0
    else `Tran (1e-9 *. (1.0 +. Random.State.float rng 9.0), 3e-8)
  in
  let sp = Sim.Sparse.create ~capacity:(base + 2) in
  (* The nominal system and each fault patch's, as its size, its
     naive cells and right-hand side, and its targets. *)
  let system delta =
    with_patch s delta (fun s ->
        let n, row, node_rows = unknown_rows s in
        let cells, rhs =
          naive_assembly ~options ~mode ~prev:(Array.sub prev 0 n) ~row ~node_rows
            ~init:(fun _ -> 0.0)
            (Netlist.Circuit.devices (Netlist.Circuit.materialise c delta))
            (Array.sub v 0 n)
        in
        let entries, tg = cell_targets sp cells in
        (n, cells, rhs, entries, tg))
  in
  let systems =
    List.map system
      (Netlist.Circuit.unchanged
      :: List.map (fun k -> plan_patch c ((6 * pick) + k)) [ 1; 2; 3; 4; 5 ])
  in
  Sim.Sparse.prime sp (List.map (fun (n, _, _, _, tg) -> (n, tg)) systems);
  let solve (n, _, rhs, entries, tg) = sparse_solve sp ~n entries tg rhs in
  match systems with
  | [] -> assert false
  | nominal :: faults ->
    (* A singular nominal system has no pivot order to freeze. *)
    Result.is_error (solve nominal)
    || List.for_all
         (fun ((n, cells, rhs, _, _) as sys) ->
           let repivots = (Sim.Sparse.stats sp).repivot in
           let got = solve sys in
           (Sim.Sparse.stats sp).repivot > repivots
           ||
           match (lu_solve ~n cells rhs, got) with
           | Ok want, Ok x -> agree 1e-9 ~n cells rhs want x
           | Error _, Error _ -> true
           | Ok _, Error _ | Error _, Ok _ -> false)
         faults

(* Reuse of unchanged factors against a solver that never reuses.  Solver
   [sp] and [reference] see the same random sequence of passes over a
   linear circuit's DC and transient systems (two step sizes), nominal
   and four fault patches (bridges and opens, so the active size moves
   and inactive overlay rows are padded): first nominal passes alone,
   then a [prime] with every system, which recompiles the grown pattern,
   then passes over all of them; about half the passes repeat the
   previous one, and the 100 S bridges repivot now and then.  Before
   each repeated pass the reference first solves the same system with
   every value doubled (exact in binary, so every pivot decision is the
   same), which forces it to refactorise the repeat, where [sp] reuses
   whenever a refactorisation made its factors.  Every solution must
   match bit for bit, [sp]'s solves must split into full factorisations,
   refactorisations and reuses, and the two must agree on everything
   but the split.  Returns that verdict and what the sequence reached,
   for the coverage check below. *)
type reuse_run = { agreed : bool; reused : bool; repivoted : bool; recompiled : bool; resized : bool }

let reuse_run c pick seed =
  let options = Sim.Engine.default_options in
  let s = Sim.Engine.Session.create ~options c in
  let rng = Random.State.make [| seed |] in
  let base = Array.length (Sim.Engine.Private.unknowns s) in
  let vector () = Array.init (base + 2) (fun _ -> Random.State.float rng 6.0 -. 1.0) in
  let v = vector () and prev = vector () in
  let h = 1e-9 *. (1.0 +. Random.State.float rng 9.0) in
  let sp = Sim.Sparse.create ~capacity:(base + 2) in
  let reference = Sim.Sparse.create ~capacity:(base + 2) in
  (* One pass: its size, its cells as a sorted list of bits (two passes
     with equal [matrix] stamp the same values), its entries and
     right-hand side, and its targets in each solver. *)
  let pass delta mode =
    with_patch s delta (fun s ->
        let n, row, node_rows = unknown_rows s in
        let cells, rhs =
          naive_assembly ~options ~mode ~prev:(Array.sub prev 0 n) ~row ~node_rows
            ~init:(fun _ -> 0.0)
            (Netlist.Circuit.devices (Netlist.Circuit.materialise c delta))
            (Array.sub v 0 n)
        in
        let matrix =
          (n, List.sort compare (Hashtbl.fold (fun (i, j) x l -> (i, j, bits x) :: l) cells []))
        in
        let entries, tg = cell_targets sp cells in
        let _, tg_ref = cell_targets reference cells in
        (matrix, entries, rhs, tg, tg_ref))
  in
  let passes_of delta =
    List.map (pass delta) [ `Dc 1.0; `Tran (h, 3e-8); `Tran (h /. 2.0, 6e-8) ]
  in
  let nominal = Array.of_list (passes_of Netlist.Circuit.unchanged) in
  let all =
    Array.append nominal
      (Array.of_list
         (List.concat_map (fun k -> passes_of (plan_patch c ((6 * pick) + k))) [ 1; 2; 3; 4 ]))
  in
  let n_of ((n, _), _, _, _, _) = n in
  let solves = ref 0 and ok = ref true and last = ref None and resized = ref false in
  let solve ((matrix, entries, rhs, tg, tg_ref) as p) =
    (match !last with Some (n, _) -> if n <> n_of p then resized := true | None -> ());
    if !last = Some matrix then begin
      let doubled = List.map (fun (i, j, x) -> (i, j, 2.0 *. x)) entries in
      ignore (sparse_solve reference ~n:(n_of p) doubled tg_ref rhs)
    end;
    let got = sparse_solve sp ~n:(n_of p) entries tg rhs in
    let want = sparse_solve reference ~n:(n_of p) entries tg_ref rhs in
    if Result.is_ok got then incr solves;
    last := Some matrix;
    ok :=
      !ok
      &&
      match (got, want) with
      | Ok x, Ok y -> same_bits x y
      | Error i, Error j -> i = j
      | Ok _, Error _ | Error _, Ok _ -> false
  in
  let walk pool count =
    let p = ref pool.(Random.State.int rng (Array.length pool)) in
    for _ = 1 to count do
      if Random.State.bool rng then p := pool.(Random.State.int rng (Array.length pool));
      solve !p
    done
  in
  walk nominal 6;
  let symbolic = (Sim.Sparse.stats sp).symbolic in
  let targets which = Array.to_list (Array.map (fun p -> (n_of p, which p)) all) in
  Sim.Sparse.prime sp (targets (fun (_, _, _, tg, _) -> tg));
  Sim.Sparse.prime reference (targets (fun (_, _, _, _, tg) -> tg));
  let recompiled = (Sim.Sparse.stats sp).symbolic > symbolic in
  (* A recompilation drops the factors, so the next pass is no repeat. *)
  if recompiled then last := None;
  walk all 16;
  let st = Sim.Sparse.stats sp and st_ref = Sim.Sparse.stats reference in
  {
    agreed =
      !ok
      && st.full + st.refactor + st.reuse = !solves
      && st_ref.reuse = 0 && st.full = st_ref.full && st.repivot = st_ref.repivot
      && st.symbolic = st_ref.symbolic;
    reused = st.reuse > 0;
    repivoted = st.repivot > 0;
    recompiled;
    resized = !resized;
  }

let reuse_gen =
  QCheck.Gen.(triple (synth_circuit_gen ~diodes:false) (int_bound 10_000) (int_bound 10_000))

let reuse_case =
  QCheck.make
    ~print:(fun (c, pick, seed) ->
      Format.asprintf "pick=%d seed=%d@.%a" pick seed Netlist.Circuit.pp c)
    reuse_gen

let plan_qcheck =
  List.map Prop.to_alcotest
    [
      QCheck.Test.make ~count:200 ~name:"sparse stamp plan equals a naive assembly, bit for bit"
        plan_case (fun (c, pick, seed, trap) ->
          plan_matches_naive ~oracle:sparse_reference
            ~solution_ok:(fun ~n:_ _ _ want got ->
              match (want, got) with
              | Ok x, Ok y -> same_bits x y
              | Error i, Error j -> i = j
              | Ok _, Error _ | Error _, Ok _ -> false)
            ~integration:(integration_of trap) c (plan_patch c pick) seed);
      QCheck.Test.make ~count:200 ~name:"sparse one-solve matches the dense Lu oracle"
        plan_case (fun (c, pick, seed, trap) ->
          plan_matches_naive
            ~oracle:(fun n -> lu_solve ~n)
            ~solution_ok:(fun ~n cells rhs want got ->
              match (want, got) with
              | Ok x, Ok y -> agree 1e-12 ~n cells rhs x y
              | Error _, Error _ -> true
              | Ok _, Error _ | Error _, Ok _ -> false)
            ~integration:(integration_of trap) c (plan_patch c pick) seed);
      QCheck.Test.make ~count:1000 ~name:"frozen pivots survive fault values"
        plan_case (fun (c, pick, seed, trap) ->
          frozen_pivots_hold ~integration:(integration_of trap) c pick seed);
      QCheck.Test.make ~count:300 ~name:"reusing unchanged factors equals refactorising, bit for bit"
        reuse_case (fun (c, pick, seed) -> (reuse_run c pick seed).agreed);
    ]
  @ [
      (* The property passes vacuously if its sequences never reach the
         cases it is about: between them, 40 of its cases must reuse,
         repivot, recompile on a prime and change the active size. *)
      Alcotest.test_case "reuse sequences reach reuse, repivot, recompile and resize" `Quick
        (fun () ->
          let cases = QCheck.Gen.generate ~rand:(Random.State.make [| Prop.seed |]) ~n:40 reuse_gen in
          let runs = List.map (fun (c, pick, seed) -> reuse_run c pick seed) cases in
          let some f = List.exists f runs in
          check_bool "all agree" true (List.for_all (fun r -> r.agreed) runs);
          check_bool "some reuse" true (some (fun r -> r.reused));
          check_bool "some repivot" true (some (fun r -> r.repivoted));
          check_bool "some prime recompiles" true (some (fun r -> r.recompiled));
          check_bool "some change of active size" true (some (fun r -> r.resized)));
    ]

(* Per-iteration allocation of the Newton loop on the paper's VCO.  The
   compiled stamp plan adds through precomputed slots and the device
   evaluators write into a session scratch, so what is left per
   iteration is the per-step bookkeeping (the accepted sample, the mode
   record) spread over the iterations of each step. *)
let alloc_tests =
  [
    Alcotest.test_case "VCO transient allocates little per Newton iteration" `Quick
      (fun () ->
        let s = Sim.Engine.Session.create (Vco.Schematic.schematic ()) in
        let run () =
          Sim.Engine.Session.transient s ~tstep:Vco.Schematic.tran.Netlist.Parser.tstep
            ~tstop:1e-6 ~uic:true
        in
        ignore (run ());
        let w0 = Gc.minor_words () in
        let _, st = run () in
        let words = Gc.minor_words () -. w0 in
        let per_iter = words /. float_of_int st.Sim.Engine.newton_iterations in
        (* 45 words on this kernel.  The bound leaves a 4x margin and
           fails a stamp that boxes a float per matrix entry (about
           1,700 words). *)
        check_bool
          (Printf.sprintf "%.1f minor words per iteration, bound 200" per_iter)
          true (per_iter < 200.0));
    Alcotest.test_case "reusing unchanged factors allocates nothing" `Quick (fun () ->
        (* A linear RC ladder before its pulse edge: the step settles at
           tstep, so the matrix repeats and most solves reuse (176 of
           184).  The per-iteration words (92 here) are the accepted-step
           bookkeeping; the reuse path itself must allocate nothing,
           which the loop below checks directly. *)
        let c = Synth.Circuit_synth.rc_ladder ~sections:4 () in
        let run s = Sim.Engine.Session.transient s ~tstep:5e-9 ~tstop:9e-7 ~uic:true in
        let obs = Obs.memory () in
        let _, st = run (Sim.Engine.Session.create ~obs c) in
        let counters = (Obs.Summary.of_events (Obs.drain obs)).Obs.Summary.counters in
        let reuses = Option.value ~default:0 (List.assoc_opt "solver.sparse.reuse" counters) in
        let iters = st.Sim.Engine.newton_iterations in
        check_bool
          (Printf.sprintf "%d of %d solves reuse" reuses iters)
          true (2 * reuses > iters);
        let s = Sim.Engine.Session.create c in
        ignore (run s);
        let w0 = Gc.minor_words () in
        let _, st = run s in
        let words = Gc.minor_words () -. w0 in
        let per_iter = words /. float_of_int st.Sim.Engine.newton_iterations in
        check_bool
          (Printf.sprintf "%.1f minor words per iteration, bound 200" per_iter)
          true (per_iter < 200.0);
        (* The reuse path alone: stamp and solve one system repeatedly. *)
        let sp = Sim.Sparse.create ~capacity:3 in
        let entries = [ (0, 0, 5.0); (1, 1, 5.0); (2, 2, 5.0); (0, 2, 1.0); (2, 0, 1.0) ] in
        for _ = 1 to 2 do
          sparse_stamp sp ~n:3 entries [ (0, 1.0) ];
          Sim.Sparse.factor_solve sp
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do
          Sim.Sparse.factor_solve sp
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check int) "1,000 reuses" 1000 (Sim.Sparse.stats sp).reuse;
        check_bool (Printf.sprintf "%.0f minor words for 1,000 reuses" words) true (words < 100.0));
  ]

let suites =
  [
    ("sim.lu", lu_tests);
    ("sim.lu.properties", lu_qcheck);
    ("sim.mosfet", mosfet_tests);
    ("sim.mosfet.properties", mosfet_qcheck);
    ("sim.waveform", waveform_tests);
    ("sim.dc", dc_tests);
    ("sim.tran", tran_tests);
    ("sim.session", session_tests);
    ("sim.engine.properties", engine_qcheck);
    ("sim.robustness", robustness_tests);
    ("sim.mna.edges", mna_edge_tests);
    ("sim.solver", solver_tests);
    ("sim.plan.properties", plan_qcheck);
    ("sim.alloc", alloc_tests);
  ]
