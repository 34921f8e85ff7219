(* Section VI model experiments:

   E6 - runtime: the paper's source-model run took 43 % longer than the
   resistor-model run (4383 s vs 3068 s on their hardware); we compare
   wall-clock for the same fault list on the same machine.

   E7 - equivalence: both models are reported to yield nearly identical
   fault coverage plots. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run () =
  Helpers.banner "Sec. VI - source model vs resistor model";
  let faults = Helpers.lift_faults () in
  let circuit = Cat.Demo.schematic () in
  let config model = { Cat.Demo.config with Anafault.Simulate.model; batch = 1 } in
  let run_source, t_source =
    wall (fun () ->
        fst (Anafault.Parsim.execute (config Faults.Inject.Source) circuit faults))
  in
  let run_resistor, t_resistor =
    wall (fun () ->
        fst
          (Anafault.Parsim.execute (config Faults.Inject.default_resistor) circuit
             faults))
  in
  Printf.printf "%-28s %12s %12s\n" "" "source" "resistor";
  Printf.printf "%-28s %11.1fs %11.1fs\n" "wall clock (serial)" t_source t_resistor;
  Printf.printf "%-28s %11.1f%% %12s\n" "source-model overhead"
    (100.0 *. ((t_source /. t_resistor) -. 1.0))
    "(paper: +43%)";
  let steps r =
    List.fold_left
      (fun acc (x : Anafault.Simulate.fault_result) ->
        acc + x.stats.Sim.Engine.accepted_steps)
      0 r.Anafault.Simulate.results
  in
  Printf.printf "%-28s %12d %12d\n" "kernel steps" (steps run_source)
    (steps run_resistor);
  Printf.printf "%-28s %11.1f%% %11.1f%%\n" "final coverage"
    (Anafault.Coverage.final_percent run_source)
    (Anafault.Coverage.final_percent run_resistor);
  (* E7: per-fault agreement between the models. *)
  let outcome (r : Anafault.Simulate.fault_result) =
    match r.outcome with
    | Anafault.Simulate.Detected _ -> `D
    | Anafault.Simulate.Undetected -> `U
    | Anafault.Simulate.Sim_failed _ -> `F
  in
  let disagreements =
    List.fold_left2
      (fun acc a b -> if outcome a <> outcome b then acc + 1 else acc)
      0 run_source.Anafault.Simulate.results run_resistor.Anafault.Simulate.results
  in
  Printf.printf "%-28s %12d %12s\n" "per-fault disagreements" disagreements
    "(paper: ~0)";
  let curve r = Anafault.Coverage.curve r ~points:50 in
  let max_div =
    List.fold_left2
      (fun acc (_, a) (_, b) -> Float.max acc (Float.abs (a -. b)))
      0.0 (curve run_source) (curve run_resistor)
  in
  Printf.printf "%-28s %11.1f%% %12s\n" "max coverage divergence" max_div
    "(paper: ~0)"
