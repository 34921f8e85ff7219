(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index).  Speed claims
   come from bench/perf's BENCH_*.json records, not from here.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- quick   # skip the slow experiments
*)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun a ->
      if a <> "quick" then begin
        Printf.eprintf "unknown argument %S (usage: main.exe [quick])\n" a;
        exit 2
      end)
    args;
  let quick = List.mem "quick" args in
  Printf.printf
    "Reproduction harness: Sebeke/Teixeira/Ohletz, DATE 1995\n\
     'Automatic Fault Extraction and Simulation of Layout Realistic Faults\n\
     for Integrated Analogue Circuits'\n";
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
    Exp_ablation.run fig5_run
  end;
  Helpers.banner "Done"
