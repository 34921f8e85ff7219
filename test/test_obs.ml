(* The telemetry subsystem: span nesting, domain-merged drains, the
   JSONL round-trip, the unified Analysis entry point, and the parity
   guarantee (instrumentation must not perturb the numerics). *)

let spans events =
  List.filter_map
    (function Obs.Span { name; parent; _ } -> Some (name, parent) | _ -> None)
    events

let obs_tests =
  [
    Alcotest.test_case "null sink is disabled and empty" `Quick (fun () ->
        Alcotest.(check bool) "enabled" false (Obs.enabled Obs.null);
        Alcotest.(check int)
          "span passes the result through" 7
          (Obs.span Obs.null "x" (fun _ -> 7));
        Obs.count Obs.null "c" 1;
        Obs.sample Obs.null "s" 1.0;
        Alcotest.(check int) "drain" 0 (List.length (Obs.drain Obs.null)));
    Alcotest.test_case "spans nest via parent links" `Quick (fun () ->
        let s = Obs.memory () in
        Obs.span s "outer" (fun _ ->
            Obs.span s "inner" (fun _ -> ());
            Obs.span s "inner2" (fun _ -> ()));
        Obs.span s "solo" (fun _ -> ());
        let recorded = spans (Obs.drain s) in
        Alcotest.(check (list (pair string (option string))))
          "parents"
          [
            ("outer", None);
            ("inner", Some "outer");
            ("inner2", Some "outer");
            ("solo", None);
          ]
          (List.sort
             (fun (a, _) (b, _) ->
               compare
                 (List.assoc a [ ("outer", 0); ("inner", 1); ("inner2", 2); ("solo", 3) ])
                 (List.assoc b [ ("outer", 0); ("inner", 1); ("inner2", 2); ("solo", 3) ]))
             recorded));
    Alcotest.test_case "an escaping exception still records the span" `Quick
      (fun () ->
        let s = Obs.memory () in
        (try Obs.span s "boom" (fun _ -> failwith "no") with Failure _ -> ());
        match Obs.drain s with
        | [ Obs.Span { name = "boom"; attrs; _ } ] ->
          Alcotest.(check bool)
            "error attr" true
            (List.mem_assoc "error" attrs)
        | _ -> Alcotest.fail "expected exactly one span");
    Alcotest.test_case "set attaches result-dependent attributes" `Quick
      (fun () ->
        let s = Obs.memory () in
        Obs.span s "f" (fun sp -> Obs.set sp "outcome" (Obs.Str "detected"));
        match Obs.drain s with
        | [ Obs.Span { attrs; _ } ] ->
          Alcotest.(check bool) "attr present" true
            (List.mem ("outcome", Obs.Str "detected") attrs)
        | _ -> Alcotest.fail "expected exactly one span");
    Alcotest.test_case "drain merges domain buffers time-sorted" `Quick
      (fun () ->
        let s = Obs.memory () in
        Obs.count s "main" 1;
        let workers =
          List.init 2 (fun d ->
              Domain.spawn (fun () ->
                  for i = 1 to 5 do
                    Obs.count s (Printf.sprintf "worker%d" d) i;
                    Obs.sample s "latency" (float_of_int i)
                  done))
        in
        List.iter Domain.join workers;
        let events = Obs.drain s in
        Alcotest.(check int) "all events survive the merge" 21
          (List.length events);
        let times = List.map Obs.event_time events in
        Alcotest.(check bool)
          "sorted by time" true
          (List.sort compare times = times);
        let domains = List.sort_uniq compare (List.map Obs.event_domain events) in
        Alcotest.(check int) "three distinct domains" 3 (List.length domains);
        Alcotest.(check int) "buffers cleared" 0 (List.length (Obs.drain s)));
    Alcotest.test_case "summary aggregates counters and samples" `Quick
      (fun () ->
        let s = Obs.memory () in
        Obs.count s "n" 2;
        Obs.count s "n" 3;
        Obs.sample s "v" 1.0;
        Obs.sample s "v" 3.0;
        let summary = Obs.Summary.of_events (Obs.drain s) in
        Alcotest.(check (list (pair string int)))
          "counter sum"
          [ ("n", 5) ]
          summary.Obs.Summary.counters;
        match summary.Obs.Summary.samples with
        | [ ("v", st) ] ->
          Alcotest.(check int) "count" 2 st.Obs.Summary.count;
          Alcotest.(check (float 1e-9)) "mean" 2.0 st.Obs.Summary.mean;
          Alcotest.(check (float 1e-9)) "min" 1.0 st.Obs.Summary.min;
          Alcotest.(check (float 1e-9)) "max" 3.0 st.Obs.Summary.max
        | _ -> Alcotest.fail "expected one sample stat");
    Alcotest.test_case "tee fans out; drain returns one stream" `Quick
      (fun () ->
        let a = Obs.memory () and b = Obs.memory () in
        let t = Obs.tee [ Obs.null; a; b ] in
        Alcotest.(check bool) "tee of a live sink is enabled" true
          (Obs.enabled t);
        Alcotest.(check bool) "tee of nulls is not" false
          (Obs.enabled (Obs.tee [ Obs.null ]));
        Obs.count t "x" 1;
        Obs.span t "s" (fun _ -> ());
        let events = Obs.drain t in
        Alcotest.(check int) "one merged stream" 2 (List.length events);
        Alcotest.(check int) "second component also drained" 0
          (List.length (Obs.drain b)));
  ]

let json_tests =
  [
    Alcotest.test_case "numbers keep the int/float distinction" `Quick
      (fun () ->
        (match Obs.Json.of_string "42" with
        | Ok (Obs.Json.Int 42) -> ()
        | _ -> Alcotest.fail "42 should parse as Int");
        (match Obs.Json.of_string "2.0" with
        | Ok (Obs.Json.Float 2.0) -> ()
        | _ -> Alcotest.fail "2.0 should parse as Float");
        match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float 2.0)) with
        | Ok (Obs.Json.Float 2.0) -> ()
        | _ -> Alcotest.fail "Float 2.0 should round-trip as Float");
    Alcotest.test_case "events round-trip through JSONL" `Quick (fun () ->
        let originals =
          [
            Obs.Span
              {
                name = "engine.analysis";
                domain = 0;
                start = 123.456789012345;
                dur = 0.25;
                parent = Some "anafault.fault";
                attrs =
                  [
                    ("kind", Obs.Str "tran");
                    ("ok", Obs.Bool true);
                    ("iters", Obs.Int 17);
                    ("t_detect", Obs.Float 1.25e-6);
                  ];
              };
            Obs.Count { name = "c"; domain = 3; time = 1.0; n = 2; attrs = [] };
            Obs.Sample
              {
                name = "s";
                domain = 1;
                time = 2.0;
                v = 0.1;
                attrs = [ ("q", Obs.Str "a \"quoted\"\nline") ];
              };
          ]
        in
        let text =
          String.concat "\n"
            (List.map
               (fun e -> Obs.Json.to_string (Obs.event_to_json e))
               originals)
        in
        match Obs.Jsonl.parse_string text with
        | Error msg -> Alcotest.fail msg
        | Ok parsed ->
          Alcotest.(check bool) "structural equality" true (parsed = originals));
    Alcotest.test_case "write/read_file round-trips a real trace" `Quick
      (fun () ->
        let s = Obs.memory () in
        Obs.span s "outer" (fun sp ->
            Obs.set sp "n" (Obs.Int 1);
            Obs.count s "hits" 4;
            Obs.sample s "dt" 3.5e-5);
        let events = Obs.drain s in
        let path = Filename.temp_file "test_obs" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> Obs.Jsonl.write oc events);
            match Obs.Jsonl.read_file path with
            | Error msg -> Alcotest.fail msg
            | Ok parsed ->
              Alcotest.(check bool) "identical" true (parsed = events)));
    Alcotest.test_case "parse errors carry the line number" `Quick (fun () ->
        match Obs.Jsonl.parse_string "{\"ev\":\"count\",\"name\":\"a\",\"domain\":0,\"time\":1.0,\"n\":1}\nnot json" with
        | Error msg ->
          Alcotest.(check bool) "mentions line 2" true (String.contains msg '2')
        | Ok _ -> Alcotest.fail "garbage should not parse");
    Alcotest.test_case "a malformed \\u escape is a typed error" `Quick (fun () ->
        List.iter
          (fun text ->
            Alcotest.(check bool) text true (Result.is_error (Obs.Json.of_string text)))
          [ "\"\\u00=1\""; "\"\\u+123\""; "\"\\u1_23\""; "\"\\uzzzz\"" ];
        Alcotest.(check bool)
          "valid escape" true
          (Obs.Json.of_string "\"\\u0041\"" = Ok (Obs.Json.String "A")));
  ]

let divider =
  Netlist.Circuit.of_devices "divider"
    [
      Netlist.Device.V { name = "V1"; np = "in"; nn = "0"; wave = Netlist.Wave.Dc 2.0 };
      Netlist.Device.R { name = "R1"; n1 = "in"; n2 = "out"; value = 1e3 };
      Netlist.Device.R { name = "R2"; n1 = "out"; n2 = "0"; value = 1e3 };
    ]

let analysis_tests =
  [
    Alcotest.test_case "run Op matches the session DC solve" `Quick
      (fun () ->
        let sol = Sim.Engine.(Analysis.solution (run divider Analysis.Op)) in
        let sess = Sim.Engine.(Session.solve_dc (Session.create divider)) in
        Alcotest.(check (float 1e-12))
          "same node voltage"
          (Sim.Engine.voltage sess "out")
          (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "result accessors reject the wrong analysis" `Quick
      (fun () ->
        let result = Sim.Engine.(run divider Analysis.Op) in
        match Sim.Engine.Analysis.waveform result with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "waveform of an Op result should raise");
    Alcotest.test_case "run emits one engine.analysis span" `Quick (fun () ->
        let obs = Obs.memory () in
        ignore (Sim.Engine.run ~obs divider Sim.Engine.Analysis.Op);
        let names =
          List.filter (fun e -> Obs.event_name e = "engine.analysis") (Obs.drain obs)
        in
        Alcotest.(check int) "one span" 1 (List.length names));
  ]

(* The guarantee the whole subsystem rests on: switching the sink can
   never change the numbers.  Same circuit, same analysis, memory sink
   versus null sink - the waveforms must be bit-identical. *)
let parity_tests =
  [
    Alcotest.test_case "instrumented VCO transient is bit-identical" `Slow
      (fun () ->
        let tran circuit ~obs =
          Sim.Engine.(
            Analysis.waveform
              (run ~obs circuit
                 (Analysis.Tran
                    {
                      tstep = Vco.Schematic.tran.Netlist.Parser.tstep;
                      tstop = Vco.Schematic.tran.Netlist.Parser.tstop;
                      uic = true;
                    })))
        in
        let plain = tran (Cat.Demo.schematic ()) ~obs:Obs.null in
        let obs = Obs.memory () in
        let traced = tran (Cat.Demo.schematic ()) ~obs in
        let events = Obs.drain obs in
        Alcotest.(check bool) "trace is non-trivial" true
          (List.length events > 100);
        Alcotest.(check bool)
          "identical time axes" true
          (Sim.Waveform.times plain = Sim.Waveform.times traced);
        Array.iter
          (fun name ->
            Alcotest.(check bool)
              (name ^ " bit-identical") true
              (Sim.Waveform.samples plain name = Sim.Waveform.samples traced name))
          (Sim.Waveform.names plain));
    Alcotest.test_case "instrumented fault batch matches null-sink batch"
      `Slow (fun () ->
        let circuit = Cat.Demo.schematic () in
        let faults =
          List.filteri (fun i _ -> i < 4) (Faults.Universe.build circuit)
        in
        let outcome_of (r : Anafault.Simulate.fault_result) =
          match r.outcome with
          | Anafault.Simulate.Detected t -> Printf.sprintf "d %.17g" t
          | Anafault.Simulate.Undetected -> "u"
          | Anafault.Simulate.Sim_failed f ->
            "f " ^ Anafault.Simulate.failure_to_string f
        in
        let run ~obs =
          let config = { Cat.Demo.config with Anafault.Simulate.obs } in
          List.map outcome_of
            (fst (Anafault.Parsim.execute config circuit faults))
              .Anafault.Simulate.results
        in
        let plain = run ~obs:Obs.null in
        let obs = Obs.memory () in
        let traced = run ~obs in
        ignore (Obs.drain obs);
        Alcotest.(check (list string)) "same outcomes" plain traced);
  ]

let suites =
  [
    ("obs.core", obs_tests);
    ("obs.json", json_tests);
    ("obs.analysis", analysis_tests);
    ("obs.parity", parity_tests);
  ]
