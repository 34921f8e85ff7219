(* Bechamel micro-benchmarks: one kernel per reproduced table/figure plus
   the computational primitives underneath them. *)

open Bechamel
open Toolkit

(* --- fixtures (built once, outside the timed region) --- *)

let small_deck =
  {|bench inverter
VDD vdd 0 5
VIN in 0 PULSE(0 5 0 10n 10n 1u 2u)
RD vdd out 10k
M1 out in 0 0 NM W=20u L=1u
.model NM NMOS VTO=1 KP=60u
.tran 20n 4u UIC
.end
|}

let small_circuit = (Netlist.Parser.parse small_deck).Netlist.Parser.circuit

let small_tran = { Netlist.Parser.tstep = 20e-9; tstop = 4e-6; uic = true }

let small_config = Anafault.Simulate.default_config ~tran:small_tran ~observed:"out" ()

let small_nominal = lazy (fst (Anafault.Simulate.nominal small_config small_circuit))

let small_session = lazy (Anafault.Simulate.session small_config small_circuit)

let small_fault =
  Faults.Fault.make ~id:"#b"
    ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "0" })
    ~mechanism:"metal1_short" ()

let small_faulty =
  lazy
    (Anafault.Simulate.run_one_in small_config (Lazy.force small_session)
       ~nominal:(Lazy.force small_nominal) small_fault)

let extraction = lazy (Lazy.force Helpers.glrfm).Cat.extraction

let lu_fixture =
  let n = 30 in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 10.0 else 1.0 /. float_of_int (1 + abs (i - j))))
  in
  let b = Array.init n (fun i -> float_of_int (i mod 7)) in
  (a, b)

let lu_scratch_fixture =
  let n = 30 in
  (Array.make_matrix n n 0.0, Array.make n 0.0, Sim.Lu.make_scratch n)

(* --- the suite --- *)

let tests =
  [
    (* Tab. 1: defect statistics rendering. *)
    Test.make ~name:"tab1/table_render" (Staged.stage (fun () ->
        ignore (Layout.Tech.table1 Layout.Tech.default)));
    (* Sec. VI counts: fault-universe construction and LIFT's bridge
       enumeration over the extracted VCO. *)
    Test.make ~name:"counts/universe_build" (Staged.stage (fun () ->
        ignore (Faults.Universe.build small_circuit)));
    Test.make ~name:"counts/bridge_sites_vco" (Staged.stage (fun () ->
        ignore (Defects.Sites.bridges (Lazy.force extraction))));
    (* Fig. 4: one faulty transient of the small fixture. *)
    Test.make ~name:"fig4/faulty_transient" (Staged.stage (fun () ->
        let faulty =
          Faults.Inject.apply ~model:Faults.Inject.default_resistor small_circuit
            small_fault
        in
        ignore
          (Sim.Engine.run faulty
             (Sim.Engine.Analysis.Tran
                {
                  tstep = small_tran.Netlist.Parser.tstep;
                  tstop = small_tran.Netlist.Parser.tstop;
                  uic = true;
                }))));
    (* Fig. 5: tolerance comparison and coverage evaluation. *)
    Test.make ~name:"fig5/first_detection" (Staged.stage (fun () ->
        let nominal = Lazy.force small_nominal in
        ignore
          (Anafault.Detect.analyse ~tolerance:Anafault.Detect.paper_tolerance
             ~signal:"out" ~nominal ~faulty:nominal)));
    Test.make ~name:"fig5/coverage_curve" (Staged.stage (fun () ->
        let run =
          { Anafault.Simulate.config = small_config;
            nominal = Lazy.force small_nominal;
            nominal_stats =
              { Sim.Engine.newton_iterations = 0; accepted_steps = 0; rejected_steps = 0 };
            results = [ Lazy.force small_faulty ];
            wall_seconds = 0.0;
            cpu_seconds = 0.0 }
        in
        ignore (Anafault.Coverage.curve run ~points:100)));
    (* Fig. 6: resistor-model injection. *)
    Test.make ~name:"fig6/inject_resistor" (Staged.stage (fun () ->
        ignore
          (Faults.Inject.apply ~model:Faults.Inject.default_resistor small_circuit
             small_fault)));
    (* Sec. VI timing: the same fault under each model, end to end, each
       call paying a fresh session (node map, compile, buffers). *)
    Test.make ~name:"models/source_run_one" (Staged.stage (fun () ->
        ignore
          (Anafault.Simulate.run_one_in
             { small_config with model = Faults.Inject.Source }
             (Anafault.Simulate.session small_config small_circuit)
             ~nominal:(Lazy.force small_nominal) small_fault)));
    Test.make ~name:"models/resistor_run_one" (Staged.stage (fun () ->
        ignore
          (Anafault.Simulate.run_one_in
             { small_config with model = Faults.Inject.default_resistor }
             (Anafault.Simulate.session small_config small_circuit)
             ~nominal:(Lazy.force small_nominal) small_fault)));
    (* Batch mode: the same fault through a shared engine session (patch,
       simulate, restore) versus the session-per-fault calls above. *)
    Test.make ~name:"batch/session_run_one" (Staged.stage (fun () ->
        ignore
          (Anafault.Simulate.run_one_in small_config (Lazy.force small_session)
             ~nominal:(Lazy.force small_nominal) small_fault)));
    Test.make ~name:"batch/session_create" (Staged.stage (fun () ->
        ignore (Anafault.Simulate.session small_config small_circuit)));
    (* Primitives. *)
    Test.make ~name:"kernel/lu_solve_30" (Staged.stage (fun () ->
        let a, b = lu_fixture in
        ignore (Sim.Lu.solve_copy a b)));
    Test.make ~name:"kernel/lu_scratch_30" (Staged.stage (fun () ->
        (* Factor into preallocated buffers: the copy is the only
           allocation-free-path cost left per solve. *)
        let a, b = lu_fixture in
        let abuf, bbuf, scratch = lu_scratch_fixture in
        for i = 0 to Array.length b - 1 do
          Array.blit a.(i) 0 abuf.(i) 0 (Array.length b)
        done;
        Array.blit b 0 bbuf 0 (Array.length b);
        Sim.Lu.factor_solve scratch abuf bbuf));
    Test.make ~name:"kernel/mosfet_eval" (Staged.stage (fun () ->
        ignore
          (Sim.Mosfet.eval Netlist.Device.default_nmos ~w:10e-6 ~l:1e-6 ~vgs:2.0
             ~vds:1.5)));
    Test.make ~name:"kernel/weighted_ca" (Staged.stage (fun () ->
        ignore
          (Geom.Critical_area.weighted
             (Geom.Critical_area.Cubic { x_min = 1000.0 })
             (Geom.Critical_area.short_area ~spacing:2500 ~length:100000))));
  ]

let run () =
  Helpers.banner "Bechamel micro-benchmarks (one kernel per experiment)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw =
    Benchmark.all cfg
      [ Instance.monotonic_clock ]
      (Test.make_grouped ~name:"liftsim" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> (name, ns) :: acc
        | Some _ | None -> (name, Float.nan) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-36s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-36s %16s\n" name human)
    rows
