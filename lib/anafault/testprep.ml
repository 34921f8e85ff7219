type candidate = {
  label : string;
  prepare : Netlist.Circuit.t -> Netlist.Circuit.t;
  config : Simulate.config;
}

type verdict = {
  candidate : candidate;
  run : Simulate.run;
  coverage : float;
  weighted : float;
  test_time : float option;
}

let judge circuit faults candidate =
  let run, _ = Parsim.execute candidate.config (candidate.prepare circuit) faults in
  let coverage = Coverage.final_percent run in
  {
    candidate;
    run;
    coverage;
    weighted = Coverage.weighted_percent run;
    test_time = Coverage.time_to_percent run coverage;
  }

let compare circuit faults candidates =
  List.map (judge circuit faults) candidates
  |> List.sort (fun a b ->
         match Float.compare b.weighted a.weighted with
         | 0 -> Stdlib.compare a.test_time b.test_time
         | c -> c)

let pp_table ppf verdicts =
  Format.fprintf ppf "@[<v>%-26s %10s %10s %12s@," "candidate test" "coverage"
    "weighted" "t(final)";
  List.iter
    (fun v ->
      let t =
        match v.test_time with
        | Some t -> Netlist.Eng.to_string t ^ "s"
        | None -> "-"
      in
      Format.fprintf ppf "%-26s %9.1f%% %9.1f%% %12s@," v.candidate.label v.coverage
        v.weighted t)
    verdicts;
  Format.fprintf ppf "@]"
