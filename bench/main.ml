(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index), plus the one
   timing experiment the perf workloads do not cover.  Speed claims
   otherwise come from bench/perf's BENCH_*.json records.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- quick   # skip the slow experiments
     dune exec bench/main.exe -- obs     # only the telemetry-overhead experiment
*)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun a ->
      if not (List.mem a [ "quick"; "obs" ]) then begin
        Printf.eprintf "unknown argument %S (usage: main.exe [quick|obs])\n" a;
        exit 2
      end)
    args;
  let quick = List.mem "quick" args in
  let obs_only = List.mem "obs" args in
  Printf.printf
    "Reproduction harness: Sebeke/Teixeira/Ohletz, DATE 1995\n\
     'Automatic Fault Extraction and Simulation of Layout Realistic Faults\n\
     for Integrated Analogue Circuits'\n";
  if obs_only then begin
    Exp_obs.run ();
    Helpers.banner "Done";
    exit 0
  end;
  Exp_tab1.run ();
  Exp_counts.run ();
  Exp_l2rfm.run ();
  Exp_fig4.run ();
  let fig5_run = Exp_fig5.run () in
  Exp_fig6.run ();
  Exp_models.run ();
  if not quick then begin
    Exp_montecarlo.run ();
    Exp_testprep.run ();
    Exp_ablation.run fig5_run;
    Exp_obs.run ()
  end;
  Helpers.banner "Done"
