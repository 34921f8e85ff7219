(* Tests for the AnaFAULT driver: detection semantics on synthetic
   waveforms, the simulation loop on a small circuit, coverage math and
   reporting. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tol = Anafault.Detect.paper_tolerance

(* Synthetic waveforms on a 400-point, 4 us grid (the paper's run). *)
let grid = Array.init 400 (fun i -> 4e-6 *. float_of_int i /. 399.0)

let wave f =
  Sim.Waveform.make ~names:[| "out" |]
    ~samples:(Array.to_list (Array.map (fun t -> (t, [| f t |])) grid))

let square ~period ~delay t =
  if t < delay then 0.0
  else if Float.rem (t -. delay) period < period /. 2.0 then 5.0
  else 0.0

let nominal = wave (square ~period:0.8e-6 ~delay:0.0)

let detect f =
  Detect_oracle.first_detection ~tolerance:tol ~signal:"out" ~nominal
    ~faulty:(wave f)

let detect_tests =
  [
    Alcotest.test_case "identical waveform is undetected" `Quick (fun () ->
        check_bool "none" true (detect (square ~period:0.8e-6 ~delay:0.0) = None));
    Alcotest.test_case "stuck low detected quickly" `Quick (fun () ->
        match detect (fun _ -> 0.0) with
        | Some t -> check_bool "early" true (t < 1.0e-6)
        | None -> Alcotest.fail "expected detection");
    Alcotest.test_case "stuck high detected" `Quick (fun () ->
        check_bool "detected" true (detect (fun _ -> 5.0) <> None));
    Alcotest.test_case "stuck mid-rail detected" `Quick (fun () ->
        (* 2.5 V differs from both rails by exactly 2.5 > 2. *)
        check_bool "detected" true (detect (fun _ -> 2.5) <> None));
    Alcotest.test_case "nothing detected before the time tolerance" `Quick (fun () ->
        match detect (fun _ -> 2.5) with
        | Some t -> check_bool "after tol_t" true (t >= tol.Anafault.Detect.tol_t)
        | None -> Alcotest.fail "expected detection");
    Alcotest.test_case "small phase shift tolerated" `Quick (fun () ->
        check_bool "none" true (detect (square ~period:0.8e-6 ~delay:0.04e-6) = None));
    Alcotest.test_case "halved frequency detected" `Quick (fun () ->
        check_bool "detected" true (detect (square ~period:1.6e-6 ~delay:0.0) <> None));
    Alcotest.test_case "doubled frequency detected" `Quick (fun () ->
        check_bool "detected" true (detect (square ~period:0.4e-6 ~delay:0.0) <> None));
    Alcotest.test_case "very fast oscillation detected via local mean" `Quick (fun () ->
        check_bool "detected" true (detect (square ~period:0.04e-6 ~delay:0.0) <> None));
    Alcotest.test_case "small level shift tolerated" `Quick (fun () ->
        let f t = square ~period:0.8e-6 ~delay:0.0 t +. 1.0 in
        check_bool "none" true (detect f = None));
    Alcotest.test_case "large level shift detected" `Quick (fun () ->
        let f t = square ~period:0.8e-6 ~delay:0.0 t +. 2.6 in
        check_bool "detected" true (detect f <> None));
    Alcotest.test_case "unknown signal raises" `Quick (fun () ->
        match
          Detect_oracle.first_detection ~tolerance:tol ~signal:"ghost" ~nominal
            ~faulty:nominal
        with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "divergence within tol_t of tstop is still detected" `Quick
      (fun () ->
        (* The run is still open (and more than half a window long) when
           the observation window ends: the tail flush must report it at
           the last sample instead of losing it to window truncation. *)
        let f t =
          square ~period:0.8e-6 ~delay:0.0 t
          +. (if t >= 3.85e-6 then 3.0 else 0.0)
        in
        match detect f with
        | Some t -> check_bool "at the tail" true (t >= 3.9e-6)
        | None -> Alcotest.fail "late divergence must not be lost");
    Alcotest.test_case "a sub-half-window tail sliver is still tolerated" `Quick
      (fun () ->
        (* Divergence covering only the last few samples (well under half
           the window) is indistinguishable from end-of-grid phase
           wobble, and must not be flushed. *)
        let f t =
          square ~period:0.8e-6 ~delay:0.0 t
          +. (if t >= 3.97e-6 then 3.0 else 0.0)
        in
        check_bool "none" true (detect f = None));
    Alcotest.test_case "a short mid-run blip is still tolerated" `Quick (fun () ->
        (* The tail flush only applies to a run that reaches the end of
           the grid; a closed sub-window divergence stays undetected. *)
        let f t =
          square ~period:0.8e-6 ~delay:0.0 t
          +. (if t >= 2.0e-6 && t < 2.03e-6 then 3.0 else 0.0)
        in
        check_bool "none" true (detect f = None));
  ]

(* --- Guarded analysis and the prefix-decidable detector --------------- *)

let one_sample_wave = Sim.Waveform.make ~names:[| "out" |] ~samples:[ (0.0, [| 0.0 |]) ]

let flat_grid_wave =
  Sim.Waveform.make ~names:[| "out" |]
    ~samples:[ (1.0, [| 0.0 |]); (1.0, [| 0.0 |]); (1.0, [| 0.0 |]) ]

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected Error" what

let analyse_tests =
  [
    Alcotest.test_case "analyse agrees with first_detection" `Quick (fun () ->
        let faulty = wave (fun _ -> 0.0) in
        let expected =
          Detect_oracle.first_detection ~tolerance:tol ~signal:"out" ~nominal
            ~faulty
        in
        (match
           Detect_oracle.analyse ~tolerance:tol ~signal:"out" ~nominal ~faulty
         with
        | Ok got -> check_bool "same" true (got = expected)
        | Error msg -> Alcotest.fail msg));
    Alcotest.test_case "degenerate inputs come back as Error, not exceptions"
      `Quick (fun () ->
        expect_error "short nominal"
          (Detect_oracle.analyse ~tolerance:tol ~signal:"out"
             ~nominal:one_sample_wave ~faulty:nominal);
        expect_error "flat time grid"
          (Detect_oracle.analyse ~tolerance:tol ~signal:"out"
             ~nominal:flat_grid_wave ~faulty:nominal);
        expect_error "empty faulty"
          (Detect_oracle.analyse ~tolerance:tol ~signal:"out" ~nominal
             ~faulty:(Sim.Waveform.make ~names:[| "out" |] ~samples:[])));
    Alcotest.test_case "non-finite samples come back as typed errors" `Quick
      (fun () ->
        let nan_wave =
          Sim.Waveform.make ~names:[| "out" |]
            ~samples:
              [ (0.0, [| 0.0 |]); (2.0e-6, [| Float.nan |]); (4.0e-6, [| 0.0 |]) ]
        in
        (match
           Detect_oracle.analyse ~tolerance:tol ~signal:"out"
             ~nominal:nan_wave ~faulty:nominal
         with
        | Error msg ->
          check_bool "names the nominal side" true
            (msg = "nominal response contains non-finite samples")
        | Ok _ -> Alcotest.fail "NaN nominal: expected Error");
        (match
           Detect_oracle.analyse ~tolerance:tol ~signal:"out" ~nominal
             ~faulty:nan_wave
         with
        | Error msg ->
          check_bool "names the faulty side" true
            (msg = "faulty response contains non-finite samples")
        | Ok _ -> Alcotest.fail "NaN faulty: expected Error");
        match
          Anafault.Detect.Incremental.create ~tolerance:tol
            ~times:[| 0.0; 1.0; 2.0 |] ~nom:[| 0.0; Float.infinity; 0.0 |]
        with
        | Error _ -> ()
        | Ok _ ->
          Alcotest.fail "Inf nominal: expected Error from Incremental.create");
    Alcotest.test_case "analyse keeps Not_found for a missing signal" `Quick
      (fun () ->
        match
          Detect_oracle.analyse ~tolerance:tol ~signal:"ghost" ~nominal
            ~faulty:nominal
        with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "incremental detector refuses degenerate grids" `Quick
      (fun () ->
        expect_error "one point"
          (Anafault.Detect.Incremental.create ~tolerance:tol ~times:[| 0.0 |]
             ~nom:[| 0.0 |]);
        expect_error "flat grid"
          (Anafault.Detect.Incremental.create ~tolerance:tol
             ~times:[| 1.0; 1.0; 1.0 |] ~nom:[| 0.0; 0.0; 0.0 |]);
        expect_error "length mismatch"
          (Anafault.Detect.Incremental.create ~tolerance:tol
             ~times:[| 0.0; 1.0 |] ~nom:[| 0.0 |]));
  ]

(* Feed the incremental detector a faulty function over the shared grid,
   stopping at the first final verdict (the batch loop's drop point);
   returns the verdict and how many samples were needed. *)
let incremental_verdict f =
  let nomv = Sim.Waveform.samples nominal "out" in
  match Anafault.Detect.Incremental.create ~tolerance:tol ~times:grid ~nom:nomv with
  | Error msg -> Alcotest.fail msg
  | Ok st ->
    let w = wave f in
    let n = Array.length grid in
    let rec go i =
      if i >= n then (Anafault.Detect.Incremental.verdict st, i)
      else
        match
          Anafault.Detect.Incremental.feed st (Sim.Waveform.value_at w "out" grid.(i))
        with
        | Anafault.Detect.Incremental.Pending -> go (i + 1)
        | v -> (v, i + 1)
    in
    go 0

let incremental_cases =
  [
    ("identical", square ~period:0.8e-6 ~delay:0.0);
    ("stuck low", fun _ -> 0.0);
    ("stuck high", fun _ -> 5.0);
    ("stuck mid-rail", fun _ -> 2.5);
    ("small phase shift", square ~period:0.8e-6 ~delay:0.04e-6);
    ("halved frequency", square ~period:1.6e-6 ~delay:0.0);
    ("doubled frequency", square ~period:0.4e-6 ~delay:0.0);
    ("fast oscillation", square ~period:0.04e-6 ~delay:0.0);
    ("small level shift", fun t -> square ~period:0.8e-6 ~delay:0.0 t +. 1.0);
    ("large level shift", fun t -> square ~period:0.8e-6 ~delay:0.0 t +. 2.6);
    ( "late divergence",
      fun t ->
        square ~period:0.8e-6 ~delay:0.0 t
        +. (if t >= 3.85e-6 then 3.0 else 0.0) );
    ( "tail sliver",
      fun t ->
        square ~period:0.8e-6 ~delay:0.0 t
        +. (if t >= 3.97e-6 then 3.0 else 0.0) );
    ( "mid-run blip",
      fun t ->
        square ~period:0.8e-6 ~delay:0.0 t
        +. (if t >= 2.0e-6 && t < 2.03e-6 then 3.0 else 0.0) );
  ]

(* The whole-array reference detector: both criteria scanned over the
   complete arrays, straight from the definition in {!Anafault.Detect}.
   It shares no code with the library's detector, so comparing against
   it checks the prefix-decidable algorithm instead of restating it.
   Returns the first detection index. *)
let reference_index ~(tolerance : Anafault.Detect.tolerance) ~times ~nom ~flt =
  let n = Array.length times in
  let dt = (times.(n - 1) -. times.(0)) /. float_of_int (n - 1) in
  let k = max 1 (int_of_float (Float.round (tolerance.tol_t /. dt))) in
  let moving_average x =
    let prefix = Array.make (n + 1) 0.0 in
    Array.iteri (fun i v -> prefix.(i + 1) <- prefix.(i) +. v) x;
    Array.init n (fun i ->
        let lo = max 0 (i - (k / 2)) and hi = min (n - 1) (i + (k / 2)) in
        (prefix.(hi + 1) -. prefix.(lo)) /. float_of_int (hi + 1 - lo))
  in
  (* A run of k + 1 diverging samples fires; a run still open at the
     end of the data fires at the last index once it spans half the
     window. *)
  let first_sustained a b =
    let rec go i run =
      if i >= n then if run >= max 1 ((k + 1) / 2) then Some (n - 1) else None
      else begin
        let run =
          if Float.abs (a.(i) -. b.(i)) > tolerance.tol_v then run + 1 else 0
        in
        if run >= k + 1 then Some i else go (i + 1) run
      end
    in
    go 0 0
  in
  match
    ( first_sustained nom flt,
      first_sustained (moving_average nom) (moving_average flt) )
  with
  | Some a, Some b -> Some (min a b)
  | (Some _ as r), None | None, (Some _ as r) -> r
  | None, None -> None

let reference f =
  let nomv = Sim.Waveform.samples nominal "out" in
  let w = wave f in
  let flt = Array.map (Sim.Waveform.value_at w "out") grid in
  Option.map (Array.get grid) (reference_index ~tolerance:tol ~times:grid ~nom:nomv ~flt)

let incremental_tests =
  [
    Alcotest.test_case "incremental verdict equals the batch detector" `Quick
      (fun () ->
        List.iter
          (fun (name, f) ->
            let expected = reference f in
            let got, _ = incremental_verdict f in
            match (expected, got) with
            | Some t, Anafault.Detect.Incremental.Detected i ->
              Alcotest.(check (float 0.0)) name t grid.(i)
            | None, Anafault.Detect.Incremental.Clear -> ()
            | None, Anafault.Detect.Incremental.Pending ->
              Alcotest.failf "%s: still pending after the full grid" name
            | ( Some _,
                ( Anafault.Detect.Incremental.Clear
                | Anafault.Detect.Incremental.Pending ) ) ->
              Alcotest.failf "%s: incremental missed the detection" name
            | None, Anafault.Detect.Incremental.Detected i ->
              Alcotest.failf "%s: spurious detection at index %d" name i)
          incremental_cases);
    Alcotest.test_case "a stuck fault is decided early" `Quick (fun () ->
        let v, fed = incremental_verdict (fun _ -> 0.0) in
        (match v with
        | Anafault.Detect.Incremental.Detected _ -> ()
        | _ -> Alcotest.fail "expected a detection");
        check_bool "well before the end of the grid" true
          (fed < Array.length grid / 2));
    Alcotest.test_case "feeding past a final verdict raises" `Quick (fun () ->
        let nomv = Sim.Waveform.samples nominal "out" in
        match
          Anafault.Detect.Incremental.create ~tolerance:tol ~times:grid ~nom:nomv
        with
        | Error msg -> Alcotest.fail msg
        | Ok st ->
          let rec drive i =
            match Anafault.Detect.Incremental.feed st 0.0 with
            | Anafault.Detect.Incremental.Pending -> drive (i + 1)
            | _ -> ()
          in
          drive 0;
          (match Anafault.Detect.Incremental.feed st 0.0 with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

(* Generated parity: random responses on short grids, with divergence
   segments of every shape the criteria distinguish - level shifts
   below and above [tol_v], and alternating offsets whose raw runs keep
   breaking while their local mean drifts.  [analyse] must report the
   reference detector's instant exactly. *)
let detect_qcheck =
  let open QCheck in
  let segment =
    Gen.(
      pair (int_range 1 12)
        (oneof
           [
             map (fun a -> `Shift a) (oneofl [ 0.0; 0.5; -0.9; 1.5; -3.0; 4.0 ]);
             map (fun a -> `Alternate a) (oneofl [ 1.5; 2.5; 5.0 ]);
           ]))
  in
  let case =
    Gen.(
      quad (int_range 8 60) (int_range 1 9) (oneofl [ 1.0; 2.0 ])
        (pair (list_size (int_range 1 12) segment) (list_size (return 60) (float_range 0.0 5.0))))
  in
  let print (n, k, tol_v, (segs, _)) =
    Printf.sprintf "n=%d k=%d tol_v=%g segments=%d" n k tol_v (List.length segs)
  in
  [
    Test.make ~name:"analyse equals the whole-array reference" ~count:500
      (make ~print case) (fun (n, k, tol_v, (segs, levels)) ->
        let times = Array.init n float_of_int in
        let nom = Array.sub (Array.of_list levels) 0 n in
        let offset = Array.make n 0.0 in
        let _ =
          List.fold_left
            (fun i (len, shape) ->
              for j = i to min n (i + len) - 1 do
                offset.(j) <-
                  (match shape with
                  | `Shift a -> a
                  | `Alternate a -> if j mod 2 = 0 then a else 0.0)
              done;
              i + len)
            0 segs
        in
        let flt = Array.mapi (fun i v -> v +. offset.(i)) nom in
        let wave_of v =
          Sim.Waveform.make ~names:[| "out" |]
            ~samples:(Array.to_list (Array.mapi (fun i t -> (t, [| v.(i) |])) times))
        in
        let tolerance = { Anafault.Detect.tol_v; tol_t = float_of_int k } in
        let expected =
          Option.map (Array.get times) (reference_index ~tolerance ~times ~nom ~flt)
        in
        match
          Detect_oracle.analyse ~tolerance ~signal:"out" ~nominal:(wave_of nom)
            ~faulty:(wave_of flt)
        with
        | Ok got -> got = expected
        | Error msg -> Test.fail_report msg);
  ]
  |> List.map Prop.to_alcotest

(* A testable circuit: NMOS inverter driven by a pulse; bridging the
   output to ground or opening the driver changes the response hard. *)
let inverter =
  (Netlist.Parser.parse
     ("inv\nVDD vdd 0 5\nVIN in 0 PULSE(0 5 0 10n 10n 1u 2u)\nRD vdd out 10k\n"
    ^ "M1 out in 0 0 NM W=20u L=1u\n.model NM NMOS VTO=1 KP=60u\n.end\n"))
    .Netlist.Parser.circuit

let tran = { Netlist.Parser.tstep = 10e-9; tstop = 4e-6; uic = true }

let config =
  Anafault.Campaign.(config_of_options default_options ~tran ~observed:"out")

let bridge_out_vdd =
  Faults.Fault.make ~id:"#1"
    ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "vdd" })
    ~mechanism:"metal1_short" ~prob:1e-7 ()

let open_gate =
  Faults.Fault.make ~id:"#2"
    ~kind:(Faults.Fault.Break
             { net = "in"; moved = [ { Faults.Fault.device = "M1"; port = 1 } ] })
    ~mechanism:"poly_open" ~prob:1e-8 ()

let benign_bridge =
  (* Shorting out to itself - no electrical change, never detected. *)
  Faults.Fault.make ~id:"#3"
    ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "out" })
    ~mechanism:"metal1_short" ~prob:1e-9 ()

let faults = [ bridge_out_vdd; open_gate; benign_bridge ]

(* Detection outcomes keyed per fault with full float precision, for
   bit-for-bit comparisons across runs and journal round-trips. *)
let key (run : Anafault.Simulate.run) =
  List.map
    (fun (r : Anafault.Simulate.fault_result) ->
      ( r.fault.Faults.Fault.id,
        match r.outcome with
        | Anafault.Simulate.Detected t -> Printf.sprintf "d%.17g" t
        | Anafault.Simulate.Undetected -> "u"
        | Anafault.Simulate.Sim_failed f -> "f:" ^ Anafault.Outcome.failure_kind f ))
    run.Anafault.Simulate.results

(* The serial reference: the campaign loop at one domain and width-1
   chunks, i.e. one fault cycle after another in fault order. *)
let run_serial ?progress ?journal config circuit faults =
  fst
    (Anafault.Parsim.execute ?progress ?journal
       { config with Anafault.Simulate.domains = 1; batch = 1 }
       circuit faults)

let simulate_tests =
  [
    Alcotest.test_case "run detects the hard faults" `Quick (fun () ->
        let run = run_serial config inverter faults in
        let detected, undetected, failed = Anafault.Simulate.tally run in
        check_int "detected" 2 detected;
        check_int "undetected" 1 undetected;
        check_int "failed" 0 failed);
    Alcotest.test_case "resistor model agrees with source model" `Quick (fun () ->
        let run_src = run_serial config inverter faults in
        let run_res =
          run_serial
            { config with model = Faults.Inject.default_resistor }
            inverter faults
        in
        let outcomes run =
          List.map
            (fun (r : Anafault.Simulate.fault_result) ->
              match r.outcome with
              | Anafault.Simulate.Detected _ -> "d"
              | Anafault.Simulate.Undetected -> "u"
              | Anafault.Simulate.Sim_failed _ -> "f")
            run.Anafault.Simulate.results
        in
        Alcotest.(check (list string)) "same outcomes" (outcomes run_src) (outcomes run_res));
    Alcotest.test_case "progress callback fires per fault" `Quick (fun () ->
        let calls = ref [] in
        let _ =
          run_serial
            ~progress:(fun d t -> calls := (d, t) :: !calls)
            config inverter faults
        in
        check_int "three calls" 3 (List.length !calls);
        check_bool "totals right" true (List.for_all (fun (_, t) -> t = 3) !calls));
    Alcotest.test_case "parallel run equals serial run" `Quick (fun () ->
        let serial = run_serial config inverter faults in
        let parallel =
          fst (Anafault.Parsim.execute { config with domains = 4 } inverter faults)
        in
        Alcotest.(check (list (pair string string)))
          "same outcomes" (key serial) (key parallel));
  ]

let parsim_tests =
  [
    Alcotest.test_case "a raising fault is isolated, others complete" `Quick
      (fun () ->
        (* r_short = 0 makes every bridge inject a zero-valued resistor,
           which the engine rejects with Invalid_argument.  The failure
           must surface as Sim_failed on that fault only, in input
           order, without killing either domain. *)
        let poison =
          { config with
            model = Faults.Inject.Resistor { r_short = 0.0; r_open = 100e6 } }
        in
        let run, stats =
          Anafault.Parsim.execute ~clamp:false { poison with domains = 2 } inverter
            faults
        in
        let outcomes =
          List.map
            (fun (r : Anafault.Simulate.fault_result) ->
              ( r.fault.Faults.Fault.id,
                match r.outcome with
                | Anafault.Simulate.Sim_failed _ -> "f"
                | Anafault.Simulate.Detected _ -> "d"
                | Anafault.Simulate.Undetected -> "u" ))
            run.Anafault.Simulate.results
        in
        (* #1 is a real bridge (poisoned); #2 is an open; #3 bridges a
           net to itself, so nothing is injected and it survives too. *)
        Alcotest.(check (list (pair string string)))
          "order kept, failures isolated"
          [ ("#1", "f"); ("#2", "d"); ("#3", "u") ]
          outcomes;
        check_int "both domains reported" 2 (List.length stats);
        check_int "all faults accounted for" 3
          (List.fold_left
             (fun acc (d : Anafault.Parsim.domain_stats) -> acc + d.faults_done)
             0 stats));
    Alcotest.test_case "domain stats cover the whole fault list" `Quick (fun () ->
        let _, stats =
          Anafault.Parsim.execute ~clamp:false { config with domains = 2 } inverter
            faults
        in
        check_int "domains" 2 (List.length stats);
        check_int "faults" 3
          (List.fold_left
             (fun acc (d : Anafault.Parsim.domain_stats) -> acc + d.faults_done)
             0 stats);
        check_bool "domain ids sorted" true
          (List.map (fun (d : Anafault.Parsim.domain_stats) -> d.domain) stats
          = [ 0; 1 ]);
        List.iter
          (fun (d : Anafault.Parsim.domain_stats) ->
            check_int "indices match count" d.faults_done
              (List.length d.fault_indices))
          stats;
        check_bool "indices partition the list" true
          (List.concat_map
             (fun (d : Anafault.Parsim.domain_stats) -> d.fault_indices)
             stats
          |> List.sort Int.compare = [ 0; 1; 2 ]));
    Alcotest.test_case "run reports both wall and cpu time" `Quick (fun () ->
        let run = run_serial config inverter faults in
        check_bool "wall positive" true (run.Anafault.Simulate.wall_seconds > 0.0);
        check_bool "cpu non-negative" true (run.Anafault.Simulate.cpu_seconds >= 0.0);
        let s = Format.asprintf "%a" Anafault.Report.pp_summary run in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "wall labelled" true (contains s "wall time");
        check_bool "cpu labelled" true (contains s "cpu time"));
  ]

let coverage_tests =
  [
    Alcotest.test_case "coverage curve is monotone to the final value" `Quick (fun () ->
        let run = run_serial config inverter faults in
        let curve = Anafault.Coverage.curve run ~points:50 in
        let values = List.map snd curve in
        let rec monotone = function
          | a :: (b :: _ as rest) -> a <= b && monotone rest
          | [ _ ] | [] -> true
        in
        check_bool "monotone" true (monotone values);
        Alcotest.(check (float 1e-9))
          "final matches" (Anafault.Coverage.final_percent run)
          (List.nth values (List.length values - 1)));
    Alcotest.test_case "final percent counts detections only" `Quick (fun () ->
        let run = run_serial config inverter faults in
        Alcotest.(check (float 0.1)) "2/3" (200.0 /. 3.0)
          (Anafault.Coverage.final_percent run));
    Alcotest.test_case "weighted percent favours likely faults" `Quick (fun () ->
        let run = run_serial config inverter faults in
        (* The undetected fault has the smallest probability, so weighted
           coverage exceeds the raw percentage. *)
        check_bool "weighted higher" true
          (Anafault.Coverage.weighted_percent run
          > Anafault.Coverage.final_percent run));
    Alcotest.test_case "time_to_percent" `Quick (fun () ->
        let run = run_serial config inverter faults in
        match Anafault.Coverage.time_to_percent run 50.0 with
        | Some t -> check_bool "within test" true (t > 0.0 && t <= 4e-6)
        | None -> Alcotest.fail "expected a time");
  ]

let report_tests =
  [
    Alcotest.test_case "csv has a line per fault plus header" `Quick (fun () ->
        let run = run_serial config inverter faults in
        let lines =
          String.split_on_char '\n' (Anafault.Report.csv run)
          |> List.filter (fun l -> l <> "")
        in
        check_int "lines" 4 (List.length lines));
    Alcotest.test_case "summary and table render" `Quick (fun () ->
        let run = run_serial config inverter faults in
        check_bool "summary" true
          (String.length (Format.asprintf "%a" Anafault.Report.pp_summary run) > 0);
        check_bool "table" true
          (String.length (Format.asprintf "%a" Anafault.Report.pp_table run) > 0);
        check_bool "plot" true (String.length (Anafault.Report.coverage_plot run) > 0));
    Alcotest.test_case "overview groups by mechanism" `Quick (fun () ->
        let run = run_serial config inverter faults in
        let s = Format.asprintf "%a" Anafault.Report.pp_overview run in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "mech listed" true (contains s "metal1_short");
        check_bool "header" true (contains s "mean t_detect"));
    Alcotest.test_case "waveform csv export" `Quick (fun () ->
        let run = run_serial config inverter faults in
        let csv = Sim.Waveform.to_csv run.Anafault.Simulate.nominal in
        let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
        Alcotest.(check int) "rows" (1 + Sim.Waveform.length run.Anafault.Simulate.nominal)
          (List.length lines));
    Alcotest.test_case "ascii plot renders axes and legend" `Quick (fun () ->
        let s =
          Anafault.Ascii_plot.render
            ~series:[ ("a", [ (0.0, 0.0); (1.0, 1.0) ]); ("b", [ (0.0, 1.0); (1.0, 0.0) ]) ]
            ()
        in
        check_bool "nonempty" true (String.length s > 100));
    Alcotest.test_case "ascii plot tolerates empty data" `Quick (fun () ->
        Alcotest.(check string) "msg" "(no data)\n"
          (Anafault.Ascii_plot.render ~series:[ ("x", []) ] ()));
  ]

(* --- Typed failure taxonomy, retry ladder, budgets, journal ----------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let counter_total events name =
  List.fold_left
    (fun acc -> function
      | Obs.Count { name = n'; n; _ } when n' = name -> acc + n
      | _ -> acc)
    0 events

(* Bridging the pulse input to the supply under the source model closes
   a loop of three ideal voltage sources with inconsistent values while
   the pulse is low: Newton cannot converge at any step size, so the
   baseline attempt always fails with a retryable kernel failure. *)
let singular_bridge =
  Faults.Fault.make ~id:"#S"
    ~kind:(Faults.Fault.Bridge { net_a = "in"; net_b = "vdd" })
    ~mechanism:"metal1_short" ~prob:1e-7 ()

let all_failures =
  [
    Anafault.Outcome.Dc_no_convergence "a";
    Anafault.Outcome.Tran_step_underflow "b";
    Anafault.Outcome.Singular_matrix "c";
    Anafault.Outcome.Bad_injection "d";
    Anafault.Outcome.Budget_exceeded "e";
    Anafault.Outcome.Cancelled "g";
    Anafault.Outcome.Crashed "f";
  ]

let taxonomy_tests =
  [
    Alcotest.test_case "failure kinds round-trip through their tags" `Quick (fun () ->
        List.iter
          (fun f ->
            match
              Anafault.Outcome.failure_of_kind
                (Anafault.Outcome.failure_kind f)
                (Anafault.Outcome.failure_detail f)
            with
            | Ok f' ->
              check_bool (Anafault.Outcome.failure_kind f) true (f = f')
            | Error msg -> Alcotest.fail msg)
          all_failures);
    Alcotest.test_case "only kernel convergence failures are retryable" `Quick
      (fun () ->
        let expected = function
          | Anafault.Outcome.Dc_no_convergence _ | Anafault.Outcome.Tran_step_underflow _
          | Anafault.Outcome.Singular_matrix _ -> true
          | Anafault.Outcome.Bad_injection _ | Anafault.Outcome.Budget_exceeded _
          | Anafault.Outcome.Cancelled _ | Anafault.Outcome.Crashed _ -> false
        in
        List.iter
          (fun f ->
            check_bool (Anafault.Outcome.failure_kind f) (expected f)
              (Anafault.Outcome.retryable f))
          all_failures);
    Alcotest.test_case "everything but a bad injection poisons the session" `Quick
      (fun () ->
        List.iter
          (fun f ->
            check_bool (Anafault.Outcome.failure_kind f)
              (match f with Anafault.Outcome.Bad_injection _ -> false | _ -> true)
              (Anafault.Outcome.poisons_session f))
          all_failures);
    Alcotest.test_case "retry strategies round-trip through strings" `Quick (fun () ->
        List.iter
          (fun s ->
            match
              Anafault.Outcome.strategy_of_string (Anafault.Outcome.strategy_to_string s)
            with
            | Ok s' -> check_bool (Anafault.Outcome.strategy_to_string s) true (s = s')
            | Error msg -> Alcotest.fail msg)
          [
            Anafault.Outcome.Baseline;
            Anafault.Outcome.Swap_model;
            Anafault.Outcome.Cut_tstep 0.25;
            Anafault.Outcome.Raise_gmin 1e3;
            Anafault.Outcome.Relax_reltol 10.0;
          ];
        check_bool "bare name takes the default factor" true
          (Anafault.Outcome.strategy_of_string "cut-tstep"
          = Ok (Anafault.Outcome.Cut_tstep 0.1));
        check_bool "unknown strategy rejected" true
          (Result.is_error (Anafault.Outcome.strategy_of_string "pray")));
    Alcotest.test_case "results round-trip through the journal codec" `Quick (fun () ->
        let r =
          {
            Anafault.Outcome.fault = bridge_out_vdd;
            outcome = Anafault.Outcome.Detected 1.2345678901234566e-06;
            attempts =
              [
                {
                  Anafault.Outcome.strategy = Anafault.Outcome.Baseline;
                  failure = Some (Anafault.Outcome.Singular_matrix "no unique solution");
                };
                { Anafault.Outcome.strategy = Anafault.Outcome.Swap_model; failure = None };
              ];
            stats =
              { Sim.Engine.newton_iterations = 905; accepted_steps = 412; rejected_steps = 3 };
            cpu_seconds = 0.00312;
          }
        in
        match
          Anafault.Outcome.result_of_json ~faults:[| bridge_out_vdd |]
            (Anafault.Outcome.result_to_json ~index:0 r)
        with
        | Ok (0, r') -> check_bool "bit-for-bit" true (r = r')
        | Ok (i, _) -> Alcotest.failf "wrong index %d" i
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "codec rejects a result for the wrong fault" `Quick (fun () ->
        let r =
          {
            Anafault.Outcome.fault = bridge_out_vdd;
            outcome = Anafault.Outcome.Undetected;
            attempts = [];
            stats = Anafault.Simulate.zero_stats;
            cpu_seconds = 0.0;
          }
        in
        let json = Anafault.Outcome.result_to_json ~index:0 r in
        check_bool "id mismatch" true
          (Result.is_error (Anafault.Outcome.result_of_json ~faults:[| open_gate |] json));
        check_bool "index out of range" true
          (Result.is_error (Anafault.Outcome.result_of_json ~faults:[||] json)));
  ]

let run_budgeted budget =
  let options = { Sim.Engine.default_options with Sim.Engine.budget } in
  ignore
    (Sim.Engine.run ~options inverter
       (Sim.Engine.Analysis.Tran { tstep = 10e-9; tstop = 4e-6; uic = true }))

let expect_budget_exceeded what budget =
  match run_budgeted budget with
  | exception Sim.Engine.Sim_error (Sim.Engine.Budget_exceeded, _) -> ()
  | () -> Alcotest.failf "%s: expected Budget_exceeded, simulation completed" what
  | exception e -> Alcotest.failf "%s: unexpected %s" what (Printexc.to_string e)

(* A budget campaign: same inverter, 1000x longer transient.  The step
   size is capped at tstep, so every full simulation needs >= 400k
   accepted steps - far beyond any 50 ms wall-clock deadline - while the
   unbudgeted nominal run still completes.  It observes the supply node,
   which its ideal source holds whatever the fault, so no detection
   stops a run before the deadline. *)
let tran_slow = { Netlist.Parser.tstep = 10e-9; tstop = 4e-3; uic = true }

let deadline_options =
  {
    Sim.Engine.default_options with
    Sim.Engine.budget =
      { Sim.Engine.unlimited with Sim.Engine.deadline_seconds = Some 0.05 };
  }

let deadline_config =
  {
    config with
    tran = tran_slow;
    observed = "vdd";
    sim_options = deadline_options;
    retries = [];
  }

let check_all_budget_exceeded (run : Anafault.Simulate.run) =
  List.iter
    (fun (r : Anafault.Simulate.fault_result) ->
      match r.outcome with
      | Anafault.Simulate.Sim_failed (Anafault.Simulate.Budget_exceeded _) -> ()
      | o ->
        Alcotest.failf "%s: expected Budget_exceeded, got %s" r.fault.Faults.Fault.id
          (Anafault.Outcome.outcome_to_string o))
    run.Anafault.Simulate.results

let budget_tests =
  [
    Alcotest.test_case "transient-step budget trips" `Quick (fun () ->
        expect_budget_exceeded "steps"
          { Sim.Engine.unlimited with Sim.Engine.max_steps = Some 5 });
    Alcotest.test_case "newton-iteration budget trips" `Quick (fun () ->
        expect_budget_exceeded "iters"
          { Sim.Engine.unlimited with Sim.Engine.max_newton_iterations = Some 10 });
    Alcotest.test_case "wall-clock deadline trips" `Quick (fun () ->
        expect_budget_exceeded "deadline"
          { Sim.Engine.unlimited with Sim.Engine.deadline_seconds = Some 0.0 });
    Alcotest.test_case "unlimited budget never trips" `Quick (fun () ->
        run_budgeted Sim.Engine.unlimited);
    Alcotest.test_case "50 ms deadline bounds every fault, serial" `Slow (fun () ->
        let t0 = Unix.gettimeofday () in
        let run = run_serial deadline_config inverter faults in
        check_all_budget_exceeded run;
        check_bool "terminated promptly" true (Unix.gettimeofday () -. t0 < 60.0));
    Alcotest.test_case "50 ms deadline bounds every fault, 4 domains" `Slow (fun () ->
        let t0 = Unix.gettimeofday () in
        let run, _ =
          Anafault.Parsim.execute { deadline_config with domains = 4 } inverter faults
        in
        check_all_budget_exceeded run;
        check_bool "terminated promptly" true (Unix.gettimeofday () -. t0 < 60.0));
    Alcotest.test_case "the nominal run is exempt from the fault budget" `Quick
      (fun () ->
        (* A zero deadline would kill every simulation it applies to; the
           campaign must still produce a nominal waveform. *)
        let options =
          {
            Sim.Engine.default_options with
            Sim.Engine.budget =
              { Sim.Engine.unlimited with Sim.Engine.deadline_seconds = Some 0.0 };
          }
        in
        let config =
          { config with sim_options = options; retries = [] }
        in
        let run = run_serial config inverter faults in
        check_bool "nominal produced" true
          (Sim.Waveform.length run.Anafault.Simulate.nominal > 0);
        check_all_budget_exceeded run);
  ]

let retry_tests =
  [
    Alcotest.test_case "swap-model retry rescues a singular injection" `Quick
      (fun () ->
        (* Default ladder: [Swap_model]. *)
        let run = run_serial config inverter [ singular_bridge ] in
        let r = List.hd run.Anafault.Simulate.results in
        (match r.outcome with
        | Anafault.Simulate.Sim_failed f ->
          Alcotest.failf "retry should have won: %s"
            (Anafault.Simulate.failure_to_string f)
        | Anafault.Simulate.Detected _ | Anafault.Simulate.Undetected -> ());
        check_int "two attempts" 2 (List.length r.attempts);
        (match r.attempts with
        | [ baseline; winner ] ->
          check_bool "baseline strategy" true
            (baseline.strategy = Anafault.Outcome.Baseline);
          (match baseline.failure with
          | Some f ->
            check_bool "original failure message kept" true
              (String.length (Anafault.Simulate.failure_to_string f) > 0)
          | None -> Alcotest.fail "baseline should have failed");
          check_bool "winning strategy recorded" true
            (winner.strategy = Anafault.Outcome.Swap_model && winner.failure = None)
        | _ -> Alcotest.fail "expected exactly two attempts"));
    Alcotest.test_case "every failed rung keeps its own message" `Quick (fun () ->
        (* Relaxing reltol cannot fix an insoluble system: both rungs
           fail and both failures must be reported. *)
        let config = { config with retries = [ Anafault.Outcome.Relax_reltol 10.0 ] } in
        let run = run_serial config inverter [ singular_bridge ] in
        let r = List.hd run.Anafault.Simulate.results in
        let failure_kind =
          match r.outcome with
          | Anafault.Simulate.Sim_failed f -> Anafault.Outcome.failure_kind f
          | _ -> Alcotest.fail "expected a failed simulation"
        in
        check_int "two attempts" 2 (List.length r.attempts);
        List.iter
          (fun (a : Anafault.Simulate.attempt) ->
            match a.failure with
            | Some f ->
              check_bool "non-empty message" true
                (String.length (Anafault.Simulate.failure_to_string f) > 0)
            | None -> Alcotest.fail "every rung should have failed")
          r.attempts;
        let table = Format.asprintf "%a" Anafault.Report.pp_table run in
        check_bool "table reports the exhausted ladder" true
          (contains table "[after 2 attempts]");
        let summary = Format.asprintf "%a" Anafault.Report.pp_summary run in
        check_bool "summary breaks failures down by class" true
          (contains summary failure_kind));
    Alcotest.test_case "non-retryable failures skip the ladder" `Quick (fun () ->
        let ghost =
          Faults.Fault.make ~id:"#G"
            ~kind:(Faults.Fault.Break
                     { net = "in";
                       moved = [ { Faults.Fault.device = "ZZ"; port = 1 } ] })
            ~mechanism:"poly_open" ~prob:1e-8 ()
        in
        let run = run_serial config inverter [ ghost ] in
        let r = List.hd run.Anafault.Simulate.results in
        (match r.outcome with
        | Anafault.Simulate.Sim_failed (Anafault.Simulate.Bad_injection _) -> ()
        | o ->
          Alcotest.failf "expected Bad_injection, got %s"
            (Anafault.Outcome.outcome_to_string o));
        check_int "single attempt" 1 (List.length r.attempts));
    Alcotest.test_case "retries are counted in the telemetry" `Quick (fun () ->
        let obs = Obs.memory () in
        let config = { config with obs } in
        let _ = run_serial config inverter [ singular_bridge ] in
        let events = Obs.drain obs in
        check_bool "anafault.retry counted" true
          (counter_total events "anafault.retry" >= 1));
  ]

let robust_tests =
  [
    Alcotest.test_case "guard maps arbitrary exceptions to Crashed" `Quick (fun () ->
        let r =
          Anafault.Simulate.guard benign_bridge (fun () -> failwith "boom")
        in
        (match r.outcome with
        | Anafault.Simulate.Sim_failed (Anafault.Simulate.Crashed msg) ->
          check_bool "carries the exception" true (contains msg "boom")
        | o ->
          Alcotest.failf "expected Crashed, got %s"
            (Anafault.Outcome.outcome_to_string o));
        check_int "no attempts recorded" 0 (List.length r.attempts));
    Alcotest.test_case "patch overflow falls back to a rebuild" `Quick (fun () ->
        (* A bridge between two nets the circuit does not have needs two
           fresh node rows plus a branch - beyond the session's overlay
           reserve - so the session path must rebuild, and agree with
           simulating the injected circuit from scratch. *)
        let ghost_bridge =
          Faults.Fault.make ~id:"#O"
            ~kind:(Faults.Fault.Bridge { net_a = "ghost1"; net_b = "ghost2" })
            ~mechanism:"metal1_short" ~prob:1e-9 ()
        in
        let obs = Obs.memory () in
        let config = { config with obs } in
        let nominal, _ = Anafault.Simulate.nominal config inverter in
        let sess = Anafault.Simulate.session config inverter in
        let in_session =
          List.hd (Anafault.Simulate.run_chunk config sess ~nominal [ ghost_bridge ])
        in
        let scratch =
          Sim.Engine.run
            (Faults.Inject.apply ~model:config.model inverter ghost_bridge)
            (Sim.Engine.Analysis.Tran
               { tstep = tran.tstep; tstop = tran.tstop; uic = tran.uic })
        in
        let faulty =
          Sim.Waveform.resample ~n:config.samples (Sim.Engine.Analysis.waveform scratch)
        in
        let from_scratch =
          match
            Detect_oracle.analyse ~tolerance:config.tolerance ~signal:"out"
              ~nominal ~faulty
          with
          | Ok (Some t) -> Anafault.Simulate.Detected t
          | Ok None -> Anafault.Simulate.Undetected
          | Error msg -> Alcotest.fail msg
        in
        check_bool "session path agrees with rebuild path" true
          (in_session.outcome = from_scratch);
        check_int "same Newton work as a one-shot run"
          (Sim.Engine.Analysis.stats scratch).Sim.Engine.newton_iterations
          in_session.stats.Sim.Engine.newton_iterations;
        check_int "rebuild counted once" 1
          (counter_total (Obs.drain obs) "session.rebuild");
        (* In a chunk of two the overflowing fault takes the same attempt,
           probe included, on a session of its own. *)
        let chunked =
          Anafault.Simulate.run_chunk config sess ~nominal [ benign_bridge; ghost_bridge ]
        in
        check_bool "chunked overflow agrees" true
          ((List.nth chunked 1).outcome = from_scratch));
    Alcotest.test_case "a poisoned session is quarantined, later faults unaffected"
      `Quick (fun () ->
        let obs = Obs.memory () in
        let config = { config with retries = []; obs } in
        let run =
          run_serial config inverter (singular_bridge :: faults)
        in
        (match key run with
        | ("#S", first) :: rest ->
          check_bool "poisoning fault failed" true (String.length first > 1 && first.[0] = 'f');
          let clean =
            run_serial { config with obs = Obs.null } inverter faults
          in
          Alcotest.(check (list (pair string string)))
            "bit-for-bit with an unpoisoned run" (key clean) rest
        | _ -> Alcotest.fail "unexpected result order");
        check_bool "quarantine counted" true
          (counter_total (Obs.drain obs) "session.quarantine" >= 1));
    Alcotest.test_case "parallel progress is monotone and complete" `Quick (fun () ->
        let calls = ref [] in
        let config = { config with domains = 4 } in
        let _ =
          Anafault.Parsim.execute
            ~progress:(fun d t -> calls := (d, t) :: !calls)
            config inverter faults
        in
        let calls = List.rev !calls in
        check_bool "at least the final call" true (calls <> []);
        check_bool "all totals right" true (List.for_all (fun (_, t) -> t = 3) calls);
        let rec monotone = function
          | (a, _) :: ((b, _) :: _ as rest) -> a <= b && monotone rest
          | [ _ ] | [] -> true
        in
        check_bool "monotone" true (monotone calls);
        check_bool "ends at (total, total)" true
          (match List.rev calls with (3, 3) :: _ -> true | _ -> false));
  ]

(* --- The attempt's in-run detector ---------------------------------------- *)

(* Drive [Simulate.detector] the way the engine does: one value per grid
   time, until a [`Stop].  Returns the outcome and the samples fed. *)
let judge values =
  let probe, outcome =
    Anafault.Simulate.detector config ~times:grid
      ~nom:(Sim.Waveform.samples nominal "out")
  in
  let rec go i =
    if i >= Array.length grid then i
    else
      match probe.Sim.Engine.Session.feed i (values i) with
      | `Stop -> i + 1
      | `Continue -> go (i + 1)
  in
  let fed = go 0 in
  (outcome (), fed)

let poisoned_outcome =
  Anafault.Simulate.Sim_failed
    (Anafault.Simulate.Crashed "detect: faulty response contains non-finite samples")

let nominal_at i = (Sim.Waveform.samples nominal "out").(i)

let outcome_t =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Anafault.Outcome.outcome_to_string o))
    ( = )

let detector_tests =
  [
    Alcotest.test_case "a stuck fault is detected and stops the run" `Quick
      (fun () ->
        let got, fed = judge (fun _ -> 0.0) in
        let expected = detect (fun _ -> 0.0) in
        Alcotest.check outcome_t "the oracle's instant"
          (Anafault.Simulate.Detected (Option.get expected)) got;
        check_bool "stopped early" true (fed < Array.length grid / 2));
    Alcotest.test_case "an unstopped detector feeds the whole grid" `Quick
      (fun () ->
        (* Only a detection stops the run: a clear verdict, reached
           early on a nominal response, still runs to tstop. *)
        let got, fed = judge nominal_at in
        Alcotest.check outcome_t "undetected" Anafault.Simulate.Undetected got;
        check_int "every grid time fed" (Array.length grid) fed);
    Alcotest.test_case "a clear verdict is undetected" `Quick (fun () ->
        let got, _ = judge nominal_at in
        Alcotest.check outcome_t "undetected" Anafault.Simulate.Undetected got);
    Alcotest.test_case "poison before the verdict is a typed crash" `Quick
      (fun () ->
        (* NaN at sample 3, long before a stuck-low response is detected;
           the run must go on (no [`Stop]) so a later kernel failure can
           still raise. *)
        let values i = if i = 3 then Float.nan else 0.0 in
        let got, fed = judge values in
        Alcotest.check outcome_t "crashed" poisoned_outcome got;
        check_int "never stopped" (Array.length grid) fed;
        let got, _ = judge (fun i -> if i = 3 then Float.infinity else nominal_at i) in
        Alcotest.check outcome_t "infinity too" poisoned_outcome got);
    Alcotest.test_case "a detection final before the poison stands" `Quick
      (fun () ->
        let _, fed = judge (fun _ -> 0.0) in
        let values i = if i >= fed then Float.nan else 0.0 in
        let expected = Anafault.Simulate.Detected (Option.get (detect (fun _ -> 0.0))) in
        let stopped, _ = judge values in
        Alcotest.check outcome_t "detected" expected stopped;
        (* An engine feeding past the stop still keeps the verdict. *)
        let probe, outcome =
          Anafault.Simulate.detector config ~times:grid
            ~nom:(Sim.Waveform.samples nominal "out")
        in
        Array.iteri (fun i _ -> ignore (probe.Sim.Engine.Session.feed i (values i))) grid;
        Alcotest.check outcome_t "poison after the stop" expected (outcome ());
        (* The whole-waveform oracle sees the poison anywhere in the
           waveform: it is the stricter, superseded rule. *)
        let wave_of_values =
          Sim.Waveform.make ~names:[| "out" |]
            ~samples:(Array.to_list (Array.mapi (fun i t -> (t, [| values i |])) grid))
        in
        check_bool "the oracle reports the poison" true
          (Result.is_error
             (Detect_oracle.analyse ~tolerance:tol ~signal:"out" ~nominal
                ~faulty:wave_of_values)));
    Alcotest.test_case "a degenerate nominal grid is a typed crash" `Quick
      (fun () ->
        let probe, outcome =
          Anafault.Simulate.detector config ~times:[| 1.0; 1.0; 1.0 |]
            ~nom:[| 0.0; 0.0; 0.0 |]
        in
        Array.iteri
          (fun i _ ->
            check_bool "never stops" true (probe.Sim.Engine.Session.feed i 0.0 = `Continue))
          probe.Sim.Engine.Session.grid;
        match outcome () with
        | Anafault.Simulate.Sim_failed (Anafault.Simulate.Crashed msg) ->
          check_bool "names the detector" true
            (String.length msg > 8 && String.sub msg 0 8 = "detect: ")
        | o -> Alcotest.failf "expected Crashed, got %s" (Anafault.Outcome.outcome_to_string o));
  ]

(* --- Chunked fault simulation with early stopping ---------------------- *)

let find_result (run : Anafault.Simulate.run) id =
  List.find
    (fun (r : Anafault.Simulate.fault_result) -> r.fault.Faults.Fault.id = id)
    run.Anafault.Simulate.results

let batch_tests =
  [
    Alcotest.test_case "auto width scales with campaign size" `Quick (fun () ->
        let at ~domains ~total =
          Anafault.Simulate.effective_batch
            { config with Anafault.Simulate.domains }
            ~total
        in
        check_int "smoke campaigns stay serial" 1 (at ~domains:1 ~total:6);
        check_int "never zero" 1 (at ~domains:4 ~total:0);
        check_int "large single-domain campaign" 16 (at ~domains:1 ~total:200);
        check_int "width shrinks with more domains" 12 (at ~domains:4 ~total:200);
        check_int "explicit width wins" 5
          (Anafault.Simulate.effective_batch
             { config with Anafault.Simulate.batch = 5 }
             ~total:6));
    Alcotest.test_case "batched run equals serial run bit-for-bit" `Quick
      (fun () ->
        let serial = run_serial config inverter faults in
        let batched, _ =
          Anafault.Parsim.execute { config with batch = 3 } inverter faults
        in
        Alcotest.(check (list (pair string string)))
          "same outcomes" (key serial) (key batched));
    Alcotest.test_case "batched run equals serial on a synthesized grid" `Quick
      (fun () ->
        let circuit = Synth.Circuit_synth.resistor_grid ~rows:4 ~cols:4 () in
        let grid_faults =
          Faults.Universe.build circuit |> List.filteri (fun i _ -> i < 12)
        in
        let tran = { Netlist.Parser.tstep = 1e-7; tstop = 2e-6; uic = false } in
        let observed = Anafault.Simulate.default_observed circuit in
        let config =
          Anafault.Campaign.(config_of_options default_options ~tran ~observed)
        in
        let serial = run_serial config circuit grid_faults in
        let batched, _ =
          Anafault.Parsim.execute { config with batch = 4 } circuit grid_faults
        in
        Alcotest.(check (list (pair string string)))
          "same outcomes" (key serial) (key batched);
        (* At the paper's 2 V tolerance the 4x4 grid stops one run early.
           A 10x10 grid (101 unknowns) at a 1 mV tolerance detects most
           faults early, so chunks stop most runs mid-transient (34 of
           these 40) while sharing one primed stamp pattern. *)
        let rows = 10 and cols = 10 in
        let circuit = Synth.Circuit_synth.resistor_grid ~rows ~cols () in
        let grid_faults =
          Faults.Universe.build circuit |> List.filteri (fun i _ -> i < 40)
        in
        let tran = { Netlist.Parser.tstep = 1e-7; tstop = 4e-6; uic = false } in
        let observed = Anafault.Simulate.default_observed circuit in
        let config =
          {
            (Anafault.Campaign.(config_of_options default_options ~tran ~observed))
            with
            tolerance = { Anafault.Detect.tol_v = 1e-3; tol_t = 0.2e-6 };
          }
        in
        let csv_at batch =
          let obs = Obs.memory () in
          let run, _ =
            Anafault.Parsim.execute { config with batch; obs } circuit grid_faults
          in
          ( Anafault.Report.csv_of_results run.Anafault.Simulate.results,
            counter_total (Obs.drain obs) "batch.drops" )
        in
        let reference, _ = csv_at 1 in
        List.iter
          (fun width ->
            let csv, drops = csv_at width in
            Alcotest.(check string)
              (Printf.sprintf "width %d table" width)
              reference csv;
            check_bool (Printf.sprintf "width %d drops variants" width) true
              (drops > 0))
          [ 3; 16 ]);
    Alcotest.test_case "a decided fault is dropped early" `Quick (fun () ->
        let obs = Obs.memory () in
        let config = { config with obs } in
        let serial = run_serial { config with obs = Obs.null } inverter faults in
        let batched, _ =
          Anafault.Parsim.execute { config with batch = 3 } inverter faults
        in
        let events = Obs.drain obs in
        check_bool "drops counted" true (counter_total events "batch.drops" >= 1);
        (* The hard bridge is detected early in the window, so its run
           must stop stepping well before an unprobed run of the injected
           circuit reaches tstop. *)
        let b = find_result batched "#1" and s = find_result serial "#1" in
        (match (b.outcome, s.outcome) with
        | Anafault.Simulate.Detected tb, Anafault.Simulate.Detected ts ->
          Alcotest.(check (float 0.0)) "same detection time" ts tb
        | _ -> Alcotest.fail "expected the bridge detected in both runs");
        let { Netlist.Parser.tstep; tstop; uic } = tran in
        let full =
          Sim.Engine.run ~options:config.sim_options
            (Faults.Inject.apply ~model:config.model inverter bridge_out_vdd)
            (Sim.Engine.Analysis.Tran { tstep; tstop; uic })
          |> Sim.Engine.Analysis.stats
        in
        check_bool "fewer accepted steps for the dropped variant" true
          (b.stats.Sim.Engine.accepted_steps < full.Sim.Engine.accepted_steps));
    Alcotest.test_case "a failed baseline rung is simulated once" `Quick
      (fun () ->
        (* One chunk of three: the singular bridge fails its baseline and
           the swap-model rung rescues it, between two benign faults.
           Every rung is one patch, so the chunk patches the session once
           per fault plus once for the rescuing rung - a baseline re-run
           would patch a fifth time. *)
        let quiet_gate =
          Faults.Fault.make ~id:"#4"
            ~kind:(Faults.Fault.Bridge { net_a = "in"; net_b = "in" })
            ~mechanism:"metal1_short" ~prob:1e-9 ()
        in
        let chunk = [ benign_bridge; singular_bridge; quiet_gate ] in
        let obs = Obs.memory () in
        let batched, _ =
          Anafault.Parsim.execute { config with batch = 3; obs } inverter chunk
        in
        check_int "one patch per fault plus the rescuing rung" 4
          (counter_total (Obs.drain obs) "session.patch");
        let r = find_result batched "#S" in
        check_int "baseline plus swap-model" 2 (List.length r.attempts);
        Alcotest.(check (list (pair string string)))
          "same outcomes as serial" (key (run_serial config inverter chunk))
          (key batched));
    Alcotest.test_case "batch width does not change the fingerprint" `Quick
      (fun () ->
        check_bool "interchangeable journals" true
          (Anafault.Simulate.fingerprint config inverter faults
          = Anafault.Simulate.fingerprint
              { config with Anafault.Simulate.batch = 8 }
              inverter faults));
    Alcotest.test_case "progress is monotone and complete under batching" `Quick
      (fun () ->
        let calls = ref [] in
        let _ =
          Anafault.Parsim.execute ~clamp:false
            ~progress:(fun d t -> calls := (d, t) :: !calls)
            { config with domains = 2; batch = 2 }
            inverter faults
        in
        let calls = List.rev !calls in
        check_bool "at least the final call" true (calls <> []);
        check_bool "all totals right" true (List.for_all (fun (_, t) -> t = 3) calls);
        let rec monotone = function
          | (a, _) :: ((b, _) :: _ as rest) -> a <= b && monotone rest
          | [ _ ] | [] -> true
        in
        check_bool "monotone" true (monotone calls);
        check_bool "ends at (total, total)" true
          (match List.rev calls with (3, 3) :: _ -> true | _ -> false));
    Alcotest.test_case "a dying domain leaves typed failures, not holes" `Quick
      (fun () ->
        let obs = Obs.memory () in
        let config = { config with obs } in
        Obs.Failpoint.reset ();
        Fun.protect ~finally:Obs.Failpoint.reset
          (fun () ->
            Obs.Failpoint.arm "parsim.session.1" Obs.Failpoint.Fail;
            let run, stats =
              Anafault.Parsim.execute ~clamp:false { config with domains = 2 }
                inverter faults
            in
            check_int "both domains reported" 2 (List.length stats);
            let dead =
              List.filter (fun (d : Anafault.Parsim.domain_stats) -> d.died) stats
            in
            check_int "exactly one died" 1 (List.length dead);
            check_int "the chaos domain" 1
              (List.hd dead).Anafault.Parsim.domain;
            check_bool "death counted" true
              (counter_total (Obs.drain obs) "parsim.domain_died" >= 1);
            (* The surviving domain drains the whole list. *)
            check_int "no failures leak into the results" 0
              (let _, _, failed = Anafault.Simulate.tally run in
               failed)));
    Alcotest.test_case "every domain dying still completes the campaign" `Quick
      (fun () ->
        Obs.Failpoint.reset ();
        Fun.protect ~finally:Obs.Failpoint.reset
          (fun () ->
            Obs.Failpoint.arm "parsim.session.0" Obs.Failpoint.Fail;
            Obs.Failpoint.arm "parsim.session.1" Obs.Failpoint.Fail;
            let run, stats =
              Anafault.Parsim.execute ~clamp:false { config with domains = 2 }
                inverter faults
            in
            check_bool "all domains died" true
              (List.for_all
                 (fun (d : Anafault.Parsim.domain_stats) -> d.died)
                 stats);
            check_int "results all accounted for" 3
              (List.length run.Anafault.Simulate.results);
            List.iter
              (fun (r : Anafault.Simulate.fault_result) ->
                match r.outcome with
                | Anafault.Simulate.Sim_failed (Anafault.Simulate.Crashed _) -> ()
                | o ->
                  Alcotest.failf "expected Crashed, got %s"
                    (Anafault.Outcome.outcome_to_string o))
              run.Anafault.Simulate.results));
  ]

exception Abort

let with_temp_journal f =
  let path = Filename.temp_file "anafault_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      f path)

let start_exn ~path ~fingerprint ~resume ~faults =
  match Anafault.Journal.start ~path ~fingerprint ~resume ~faults with
  | Ok j -> j
  | Error msg -> Alcotest.fail msg

let journal_tests =
  [
    Alcotest.test_case "a journalled campaign restores on resume" `Quick (fun () ->
        with_temp_journal @@ fun path ->
        let fp = Anafault.Simulate.fingerprint config inverter faults in
        let fault_arr = Array.of_list faults in
        let j = start_exn ~path ~fingerprint:fp ~resume:false ~faults:fault_arr in
        let first = run_serial ~journal:j config inverter faults in
        Anafault.Journal.close j;
        let j2 = start_exn ~path ~fingerprint:fp ~resume:true ~faults:fault_arr in
        check_int "all restored" 3 (Anafault.Journal.restored_count j2);
        let obs = Obs.memory () in
        let second =
          run_serial ~journal:j2 { config with obs } inverter faults
        in
        Anafault.Journal.close j2;
        Alcotest.(check (list (pair string string)))
          "bit-for-bit" (key first) (key second);
        check_int "nothing re-simulated" 3
          (counter_total (Obs.drain obs) "journal.skipped"));
    Alcotest.test_case "killed mid-campaign, resume matches the uninterrupted run"
      `Quick (fun () ->
        with_temp_journal @@ fun path ->
        let uninterrupted = run_serial config inverter faults in
        let fp = Anafault.Simulate.fingerprint config inverter faults in
        let fault_arr = Array.of_list faults in
        let j = start_exn ~path ~fingerprint:fp ~resume:false ~faults:fault_arr in
        (match
           run_serial ~journal:j
             ~progress:(fun completed _ -> if completed >= 1 then raise Abort)
             config inverter faults
         with
        | exception Abort -> ()
        | _ -> Alcotest.fail "campaign should have been aborted");
        Anafault.Journal.close j;
        let j2 = start_exn ~path ~fingerprint:fp ~resume:true ~faults:fault_arr in
        check_int "one fault survived the kill" 1 (Anafault.Journal.restored_count j2);
        let obs = Obs.memory () in
        let resumed =
          run_serial ~journal:j2 { config with obs } inverter faults
        in
        Anafault.Journal.close j2;
        Alcotest.(check (list (pair string string)))
          "detection tally bit-for-bit" (key uninterrupted) (key resumed);
        check_bool "tallies equal" true
          (Anafault.Simulate.tally uninterrupted = Anafault.Simulate.tally resumed);
        check_int "completed fault not re-simulated" 1
          (counter_total (Obs.drain obs) "journal.skipped"));
    Alcotest.test_case "a torn trailing line is tolerated" `Quick (fun () ->
        with_temp_journal @@ fun path ->
        let fp = Anafault.Simulate.fingerprint config inverter faults in
        let fault_arr = Array.of_list faults in
        let j = start_exn ~path ~fingerprint:fp ~resume:false ~faults:fault_arr in
        let _ = run_serial ~journal:j config inverter faults in
        Anafault.Journal.close j;
        let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
        output_string oc "{\"index\": 2, \"id";
        close_out oc;
        let j2 = start_exn ~path ~fingerprint:fp ~resume:true ~faults:fault_arr in
        check_int "intact lines all restored" 3 (Anafault.Journal.restored_count j2);
        Anafault.Journal.close j2);
    Alcotest.test_case "a record after a torn tail survives the next resume" `Quick
      (fun () ->
        with_temp_journal @@ fun path ->
        let fp = Anafault.Simulate.fingerprint config inverter faults in
        let fault_arr = Array.of_list faults in
        let j = start_exn ~path ~fingerprint:fp ~resume:false ~faults:fault_arr in
        let _ = run_serial ~journal:j config inverter faults in
        Anafault.Journal.close j;
        (* A crash mid-append: the last record loses its end, newline
           included. *)
        let text = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (String.sub text 0 (String.length text - 11)));
        let j2 = start_exn ~path ~fingerprint:fp ~resume:true ~faults:fault_arr in
        check_int "the torn record is lost" 2 (Anafault.Journal.restored_count j2);
        let _ = run_serial ~journal:j2 config inverter faults in
        Anafault.Journal.close j2;
        (* The re-simulated fault's record is a line of its own, so the
           next life restores it instead of simulating it a third time. *)
        let j3 = start_exn ~path ~fingerprint:fp ~resume:true ~faults:fault_arr in
        check_int "every fault restored" 3 (Anafault.Journal.restored_count j3);
        Anafault.Journal.close j3);
    Alcotest.test_case "a journal for another campaign is refused" `Quick (fun () ->
        with_temp_journal @@ fun path ->
        let fp = Anafault.Simulate.fingerprint config inverter faults in
        let fault_arr = Array.of_list faults in
        let j = start_exn ~path ~fingerprint:fp ~resume:false ~faults:fault_arr in
        Anafault.Journal.close j;
        (match
           Anafault.Journal.start ~path ~fingerprint:"deadbeef" ~resume:true
             ~faults:fault_arr
         with
        | Error msg -> check_bool "says fingerprint" true (contains msg "fingerprint")
        | Ok _ -> Alcotest.fail "fingerprint mismatch must be refused");
        match
          Anafault.Journal.start ~path ~fingerprint:fp ~resume:true
            ~faults:(Array.of_list (faults @ faults))
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "fault-count mismatch must be refused");
    Alcotest.test_case "the parallel scheduler honours a journal" `Quick (fun () ->
        with_temp_journal @@ fun path ->
        let serial = run_serial config inverter faults in
        let fp = Anafault.Simulate.fingerprint config inverter faults in
        let fault_arr = Array.of_list faults in
        let j = start_exn ~path ~fingerprint:fp ~resume:false ~faults:fault_arr in
        let _ = run_serial ~journal:j config inverter faults in
        Anafault.Journal.close j;
        let j2 = start_exn ~path ~fingerprint:fp ~resume:true ~faults:fault_arr in
        let config4 = { config with domains = 4 } in
        let resumed, _ = Anafault.Parsim.execute ~journal:j2 config4 inverter faults in
        Anafault.Journal.close j2;
        Alcotest.(check (list (pair string string)))
          "parallel resume bit-for-bit" (key serial) (key resumed));
    Alcotest.test_case "journals are interchangeable between batch widths" `Quick
      (fun () ->
        (* A journal written by the batched scheduler resumes under the
           serial one and vice versa: the fingerprint ignores the batch
           width and the records carry identical payloads. *)
        with_temp_journal @@ fun path ->
        let fp = Anafault.Simulate.fingerprint config inverter faults in
        let fault_arr = Array.of_list faults in
        let j = start_exn ~path ~fingerprint:fp ~resume:false ~faults:fault_arr in
        let batched, _ =
          Anafault.Parsim.execute ~journal:j { config with batch = 3 } inverter
            faults
        in
        Anafault.Journal.close j;
        let j2 = start_exn ~path ~fingerprint:fp ~resume:true ~faults:fault_arr in
        check_int "all restored" 3 (Anafault.Journal.restored_count j2);
        let obs = Obs.memory () in
        let serial =
          run_serial ~journal:j2 { config with obs } inverter faults
        in
        Anafault.Journal.close j2;
        Alcotest.(check (list (pair string string)))
          "serial resume of a batched journal" (key batched) (key serial);
        check_int "nothing re-simulated" 3
          (counter_total (Obs.drain obs) "journal.skipped");
        (* And the other direction: a serial journal resumed batched. *)
        with_temp_journal @@ fun path2 ->
        let j3 =
          start_exn ~path:path2 ~fingerprint:fp ~resume:false ~faults:fault_arr
        in
        let serial2 = run_serial ~journal:j3 config inverter faults in
        Anafault.Journal.close j3;
        let j4 =
          start_exn ~path:path2 ~fingerprint:fp ~resume:true ~faults:fault_arr
        in
        let rebatched, _ =
          Anafault.Parsim.execute ~journal:j4 { config with batch = 3 } inverter
            faults
        in
        Anafault.Journal.close j4;
        Alcotest.(check (list (pair string string)))
          "batched resume of a serial journal" (key serial2) (key rebatched));
    Alcotest.test_case "different configs fingerprint differently" `Quick (fun () ->
        let fp = Anafault.Simulate.fingerprint config inverter faults in
        check_bool "model changes it" true
          (fp
          <> Anafault.Simulate.fingerprint
               { config with model = Faults.Inject.default_resistor }
               inverter faults);
        check_bool "retry ladder changes it" true
          (fp
          <> Anafault.Simulate.fingerprint
               { config with retries = [] }
               inverter faults);
        check_bool "budget changes it" true
          (fp
          <> Anafault.Simulate.fingerprint
               { config with sim_options = deadline_options }
               inverter faults);
        check_bool "fault list changes it" true
          (fp <> Anafault.Simulate.fingerprint config inverter (List.tl faults));
        check_bool "domains and obs do not change it" true
          (fp
          = Anafault.Simulate.fingerprint
              { config with domains = 7; obs = Obs.memory () }
              inverter faults));
  ]

(* A random synthesized circuit (a diode-clamped RC ladder or a
   resistor grid, of random size), a random subset of its fault universe
   and a tolerance: the paper's, or a 1 mV one that detects (and so
   stops) most faults early. *)
let synth_campaign =
  let open QCheck in
  let circuit =
    Gen.(
      oneof
        [
          map
            (fun n -> Synth.Circuit_synth.rc_ladder ~diodes:true ~sections:n ())
            (int_range 1 16);
          map
            (fun (rows, cols) -> Synth.Circuit_synth.resistor_grid ~rows ~cols ())
            (pair (int_range 2 4) (int_range 2 4));
        ])
  in
  let case =
    Gen.(
      circuit >>= fun c ->
      let universe = Faults.Universe.build c in
      map2
        (fun keep tol_v ->
          let chosen =
            List.combine keep universe |> List.filter_map (fun (k, f) -> if k then Some f else None)
          in
          (c, List.filteri (fun i _ -> i < 12) chosen, tol_v))
        (list_size (return (List.length universe)) bool)
        (oneofl [ 2.0; 1e-3 ]))
  in
  let print (c, faults, tol_v) =
    Printf.sprintf "%d devices, tol_v=%g, faults %s" (Netlist.Circuit.device_count c) tol_v
      (String.concat " " (List.map (fun f -> f.Faults.Fault.id) faults))
  in
  make ~print case

let synth_tran = { Netlist.Parser.tstep = 1e-7; tstop = 4e-6; uic = false }

let synth_config circuit tol_v =
  let observed = Anafault.Simulate.default_observed circuit in
  {
    (Anafault.Campaign.(config_of_options default_options ~tran:synth_tran ~observed)) with
    tolerance = { Anafault.Detect.tol_v; tol_t = 0.2e-6 };
  }

(* A per-fault step budget: none, or fewer steps than a run to tstop
   takes, so an attempt trips it unless a detection stops the run first. *)
let synth_budget =
  QCheck.make
    ~print:(function None -> "no budget" | Some n -> Printf.sprintf "%d steps" n)
    QCheck.Gen.(oneof [ return None; map Option.some (int_range 5 40) ])

(* Generated width parity: widths 3 and 16 must give width 1's detection
   table byte for byte, with or without a step budget. *)
let width_qcheck =
  let open QCheck in
  [
    Test.make ~name:"widths 1, 3 and 16 give one table" ~count:20
      (pair synth_campaign synth_budget)
      (fun ((circuit, faults, tol_v), max_steps) ->
        let config = synth_config circuit tol_v in
        let budget = { Sim.Engine.unlimited with Sim.Engine.max_steps } in
        let config =
          { config with sim_options = { config.sim_options with Sim.Engine.budget } }
        in
        let csv_at batch =
          let run, _ = Anafault.Parsim.execute { config with batch } circuit faults in
          Anafault.Report.csv_of_results run.Anafault.Simulate.results
        in
        let reference = csv_at 1 in
        List.for_all (fun width -> csv_at width = reference) [ 3; 16 ]);
  ]
  |> List.map Prop.to_alcotest

(* The moved counter: the factorisations sharing a chunk's primed
   symbolic analysis are counted by the fault loop, so a campaign counts
   exactly its faults' Newton iterations at every width. *)
let counter_tests =
  [
    Alcotest.test_case "shared factorisations are counted for primed chunks only"
      `Quick (fun () ->
        let at batch =
          let obs = Obs.memory () in
          let run, _ = Anafault.Parsim.execute { config with batch; obs } inverter faults in
          (run, counter_total (Obs.drain obs) "batch.shared_factorisations")
        in
        List.iter
          (fun width ->
            let run, shared = at width in
            let iterations =
              List.fold_left
                (fun acc (r : Anafault.Simulate.fault_result) ->
                  acc + r.stats.Sim.Engine.newton_iterations)
                0 run.Anafault.Simulate.results
            in
            check_bool "the faults did Newton work" true (iterations > 0);
            check_int
              (Printf.sprintf "width %d counts its faults' iterations" width)
              iterations shared)
          [ 1; 3 ]);
  ]

(* Generated oracle: a random synthesized circuit and a random subset of
   its fault universe, run at widths 1 and 3.  Each fault's outcome must
   be the whole-waveform oracle's verdict on the fault's full-length
   one-shot transient, resampled onto the output grid - an independent
   comparison, where the width-parity property only checks the in-run
   detector against itself.  Without a retry ladder a kernel failure
   must fail on both sides. *)
let oracle_qcheck =
  let open QCheck in
  [
    Test.make ~name:"every outcome equals the whole-waveform oracle" ~count:12
      synth_campaign (fun (circuit, faults, tol_v) ->
        let config = { (synth_config circuit tol_v) with retries = [] } in
        let nominal, _ = Anafault.Simulate.nominal config circuit in
        let { Netlist.Parser.tstep; tstop; uic } = synth_tran in
        let oracle fault =
          match
            Sim.Engine.run
              (Faults.Inject.apply ~model:config.model circuit fault)
              (Sim.Engine.Analysis.Tran { tstep; tstop; uic })
          with
          | exception Sim.Engine.Sim_error _ -> None
          | result -> (
            let faulty =
              Sim.Waveform.resample ~n:config.samples (Sim.Engine.Analysis.waveform result)
            in
            match
              Detect_oracle.analyse ~tolerance:config.tolerance ~signal:config.observed
                ~nominal ~faulty
            with
            | Ok (Some t) -> Some (Anafault.Simulate.Detected t)
            | Ok None -> Some Anafault.Simulate.Undetected
            | Error msg ->
              Some (Anafault.Simulate.Sim_failed (Anafault.Simulate.Crashed ("detect: " ^ msg))))
        in
        let expected = List.map oracle faults in
        List.for_all
          (fun batch ->
            let run, _ = Anafault.Parsim.execute { config with batch } circuit faults in
            List.for_all2
              (fun (r : Anafault.Simulate.fault_result) expected ->
                match (expected, r.outcome) with
                | None, Anafault.Simulate.Sim_failed _ -> true
                | Some o, got when o = got -> true
                | _, got ->
                  Test.fail_reportf "width %d, fault %s: got %s, oracle %s" batch
                    r.fault.Faults.Fault.id
                    (Anafault.Outcome.outcome_to_string got)
                    (match expected with
                    | None -> "kernel failure"
                    | Some o -> Anafault.Outcome.outcome_to_string o))
              run.Anafault.Simulate.results expected)
          [ 1; 3 ]);
  ]
  |> List.map Prop.to_alcotest

let suites =
  [
    ("anafault.detect", detect_tests);
    ("anafault.analyse", analyse_tests);
    ("anafault.incremental", incremental_tests @ detect_qcheck);
    ("anafault.detector", detector_tests);
    ("anafault.simulate", simulate_tests);
    ("anafault.batch", batch_tests @ width_qcheck @ counter_tests @ oracle_qcheck);
    ("anafault.parsim", parsim_tests);
    ("anafault.coverage", coverage_tests);
    ("anafault.report", report_tests);
    ("anafault.failure", taxonomy_tests);
    ("anafault.budget", budget_tests);
    ("anafault.retry", retry_tests);
    ("anafault.robust", robust_tests);
    ("anafault.journal", journal_tests);
  ]
