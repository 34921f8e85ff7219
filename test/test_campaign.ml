(* Tests for the first-class Campaign API and the anafaultd service:
   JSON codec round-trips (options, specs, events, results), the pinned
   campaign fingerprint, the unified failure string codec, the failpoint
   registry, and an in-process daemon: submit / cache-hit round trips,
   restart, cancellation. *)

module Campaign = Anafault.Campaign
module Journal = Anafault.Journal
module Outcome = Anafault.Outcome
module Protocol = Anafaultd.Protocol
module J = Obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* The NMOS-inverter campaign of test_anafault, with the .tran card in
   the deck so the whole campaign travels as one spec. *)
let deck_text =
  "inv\nVDD vdd 0 5\nVIN in 0 PULSE(0 5 0 10n 10n 1u 2u)\nRD vdd out 10k\n"
  ^ "M1 out in 0 0 NM W=20u L=1u\n.model NM NMOS VTO=1 KP=60u\n"
  ^ ".tran 10n 4u UIC\n.end\n"

let fixture_faults =
  [
    Faults.Fault.make ~id:"#1"
      ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "vdd" })
      ~mechanism:"metal1_short" ~prob:1e-7 ();
    Faults.Fault.make ~id:"#2"
      ~kind:
        (Faults.Fault.Break
           {
             net = "in";
             moved = [ { Faults.Fault.device = "M1"; port = 1 } ];
           })
      ~mechanism:"poly_open" ~prob:1e-8 ();
    (* Shorting out to itself - no electrical change, never detected. *)
    Faults.Fault.make ~id:"#3"
      ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "out" })
      ~mechanism:"metal1_short" ~prob:1e-9 ();
  ]

let spec =
  {
    Campaign.deck = deck_text;
    observed = Some "out";
    faults = Faults.Fault_list.to_string fixture_faults;
    options = Campaign.default_options;
  }

let compile () = ok "compile" (Campaign.compile spec)

let fault_array () = Array.of_list (compile ()).Campaign.faults

let temp_path suffix =
  let path = Filename.temp_file "campaign" suffix in
  Sys.remove path;
  path

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* --- Codec round trips ------------------------------------------------- *)

let codec_tests =
  [
    Alcotest.test_case "default options round-trip" `Quick (fun () ->
        let opts = Campaign.default_options in
        let back =
          ok "options_of_json" (Campaign.options_of_json (Campaign.options_to_json opts))
        in
        check_bool "equal" true (back = opts));
    Alcotest.test_case "CLI-built options round-trip" `Quick (fun () ->
        let opts =
          ok "options_of_cli"
            (Campaign.options_of_cli ~model:"resistor" ~tol_v:1.5 ~tol_t:0.3e-6
               ~retries:"swap-model,cut-tstep=0.25" ~samples:200 ~domains:3 ~batch:4 ~budget_iters:1000
               ~budget_steps:5000 ~budget_seconds:2.5 ())
        in
        let back =
          ok "options_of_json" (Campaign.options_of_json (Campaign.options_to_json opts))
        in
        check_bool "equal" true (back = opts);
        check_int "domains" 3 back.Campaign.domains;
        check_bool "resistor model" true
          (match back.Campaign.model with
          | Faults.Inject.Resistor _ -> true
          | Faults.Inject.Source -> false));
    Alcotest.test_case "options_of_cli rejects bad input" `Quick (fun () ->
        check_bool "bad model" true
          (Result.is_error (Campaign.options_of_cli ~model:"wires" ()));
        check_bool "bad retries" true
          (Result.is_error (Campaign.options_of_cli ~retries:"warp-time" ()));
        check_bool "one sample" true
          (Result.is_error (Campaign.options_of_cli ~samples:1 ()));
        check_bool "no domain" true
          (Result.is_error (Campaign.options_of_cli ~domains:0 ()));
        check_bool "negative batch" true
          (Result.is_error (Campaign.options_of_cli ~batch:(-3) ())));
    Alcotest.test_case "missing options fields take defaults" `Quick (fun () ->
        let back = ok "options_of_json" (Campaign.options_of_json (J.Obj [])) in
        check_bool "defaults" true (back = Campaign.default_options));
    Alcotest.test_case "config round-trips through options" `Quick (fun () ->
        (* Every field off its default, so a dropped or crossed field shows. *)
        let options =
          {
            Campaign.model = Faults.Inject.default_resistor;
            tolerance = { Anafault.Detect.tol_v = 0.25; tol_t = 3e-7 };
            sim =
              { Sim.Engine.default_options with Sim.Engine.max_iter = 77 };
            retries = [];
            samples = 123;
            domains = 3;
            batch = 5;
          }
        in
        let compiled = ok "compile" (Campaign.compile { spec with options }) in
        let c = compiled.Campaign.config in
        let module S = Anafault.Simulate in
        check_bool "model" true (c.S.model = options.Campaign.model);
        check_bool "tolerance" true (c.S.tolerance = options.Campaign.tolerance);
        check_bool "sim options" true (c.S.sim_options = options.Campaign.sim);
        check_bool "retries" true (c.S.retries = options.Campaign.retries);
        check_int "samples" options.Campaign.samples c.S.samples;
        check_int "domains" options.Campaign.domains c.S.domains;
        check_int "batch" options.Campaign.batch c.S.batch;
        check_string "observed" "out" c.S.observed;
        check_bool "tran" true (c.S.tran = compiled.Campaign.tran));
    Alcotest.test_case "spec round-trip (explicit observed)" `Quick (fun () ->
        let back = ok "spec_of_json" (Campaign.spec_of_json (Campaign.spec_to_json spec)) in
        check_bool "equal" true (back = spec));
    Alcotest.test_case "spec round-trip (default observed)" `Quick (fun () ->
        let s = { spec with Campaign.observed = None } in
        let back = ok "spec_of_json" (Campaign.spec_of_json (Campaign.spec_to_json s)) in
        check_bool "equal" true (back = s));
    Alcotest.test_case "request round-trip" `Quick (fun () ->
        List.iter
          (fun req ->
            let back =
              ok "request_of_json" (Protocol.request_of_json (Protocol.request_to_json req))
            in
            check_bool "equal" true (back = req))
          [
            Protocol.Submit { spec; client = None; deadline_s = None };
            Protocol.Submit { spec; client = Some "ci"; deadline_s = None };
            Protocol.Submit { spec; client = Some "ci"; deadline_s = Some 30.0 };
            (let lift =
               {
                 Protocol.layout = "tech lambda=500\n";
                 p_min = 3e-8;
                 uniform_pdf = false;
                 merge_equivalent = true;
                 tile_nm = 200_000;
               }
             in
             Protocol.Extract { lift; simulate = None; client = None; deadline_s = None });
            (let lift =
               {
                 Protocol.layout = "tech lambda=500\n";
                 p_min = 0.0;
                 uniform_pdf = true;
                 merge_equivalent = false;
                 tile_nm = 0;
               }
             in
             Protocol.Extract
               { lift; simulate = Some spec; client = Some "ci"; deadline_s = Some 9.5 });
            Protocol.Cancel { fingerprint = "abc123" };
            Protocol.Stats;
            Protocol.Ping;
            Protocol.Shutdown;
          ]);
    Alcotest.test_case "lift fingerprint is content, not layout-of-work" `Quick
      (fun () ->
        let lift =
          {
            Protocol.layout = "tech lambda=500\n";
            p_min = 3e-8;
            uniform_pdf = false;
            merge_equivalent = true;
            tile_nm = 200_000;
          }
        in
        let fp = Protocol.lift_fingerprint lift in
        check_bool "prefixed" true (String.length fp > 5 && String.sub fp 0 5 = "lift-");
        (* Retiling the same layout must still hit the cache... *)
        check_bool "tile-free" true
          (Protocol.lift_fingerprint { lift with Protocol.tile_nm = 0 } = fp);
        (* ...while any change to layout or pricing must not. *)
        check_bool "layout keyed" true
          (Protocol.lift_fingerprint { lift with Protocol.layout = "x" } <> fp);
        check_bool "p_min keyed" true
          (Protocol.lift_fingerprint { lift with Protocol.p_min = 1e-9 } <> fp);
        check_bool "pdf keyed" true
          (Protocol.lift_fingerprint { lift with Protocol.uniform_pdf = true } <> fp));
    Alcotest.test_case "extracted round-trip" `Quick (fun () ->
        let e =
          {
            Protocol.ex_fingerprint = "lift-abc";
            ex_cached = true;
            ex_faults = "# fault list\n";
            ex_sites = 42;
            ex_bridging = 7;
            ex_line_opens = 3;
            ex_contact_opens = 2;
            ex_stuck_opens = 1;
          }
        in
        (match Protocol.extracted_of_json (Protocol.extracted_to_json e) with
        | Ok (Some back) -> check_bool "equal" true (back = e)
        | Ok None | Error _ -> Alcotest.fail "extracted did not round-trip");
        (* Non-extracted objects fall through for the event codec. *)
        match
          Protocol.extracted_of_json
            (Campaign.event_to_json (Campaign.Cache_hit { fingerprint = "x" }))
        with
        | Ok None -> ()
        | Ok (Some _) | Error _ -> Alcotest.fail "event misread as extracted");
    Alcotest.test_case "event round-trips" `Quick (fun () ->
        let faults = fault_array () in
        List.iter
          (fun ev ->
            let back =
              ok "event_of_json" (Campaign.event_of_json ~faults (Campaign.event_to_json ev))
            in
            check_bool "equal" true (back = ev))
          [
            Campaign.Accepted { fingerprint = "abc123"; total = 3 };
            Campaign.Progress { completed = 1; total = 3 };
            Campaign.Cache_hit { fingerprint = "abc123" };
            Campaign.Cancelled
              { fingerprint = "abc123"; reason = "cancelled by user"; salvaged = 4 };
            Campaign.Failed { message = "no such node" };
          ]);
    Alcotest.test_case "campaign result round-trips" `Quick (fun () ->
        let compiled = compile () in
        let { Campaign.result; _ } = Campaign.run_local compiled in
        let faults = fault_array () in
        let back =
          ok "result_of_json" (Campaign.result_of_json ~faults (Campaign.result_to_json result))
        in
        check_string "fingerprint" result.Campaign.fingerprint back.Campaign.fingerprint;
        check_int "total" result.Campaign.total back.Campaign.total;
        check_bool "wall clock survives" true
          (back.Campaign.wall_seconds = result.Campaign.wall_seconds);
        check_string "same detection table"
          (Anafault.Report.csv_of_results result.Campaign.results)
          (Anafault.Report.csv_of_results back.Campaign.results);
        let d, u, f = Campaign.tally back in
        check_int "detected" 2 d;
        check_int "undetected" 1 u;
        check_int "failed" 0 f);
  ]

(* --- Fingerprint pinning ----------------------------------------------- *)

(* The campaign fingerprint is the content address of every cache entry
   and journal; silent drift would orphan them all.  This golden value
   may only change with a deliberate fingerprint-format bump. *)
let pinned_fingerprint = "dab021f90df8f7eeb5348b4748b3752f"

let fingerprint_tests =
  [
    Alcotest.test_case "compiled fingerprint matches the pinned golden" `Quick
      (fun () ->
        check_string "fingerprint" pinned_fingerprint
          (compile ()).Campaign.fingerprint);
    Alcotest.test_case "fingerprint ignores schedule knobs" `Quick (fun () ->
        let wide =
          {
            spec with
            Campaign.options =
              { spec.Campaign.options with Campaign.domains = 7; batch = 5 };
          }
        in
        check_string "same" pinned_fingerprint
          (ok "compile" (Campaign.compile wide)).Campaign.fingerprint);
    Alcotest.test_case "fingerprint tracks electrical options" `Quick (fun () ->
        let tighter =
          {
            spec with
            Campaign.options =
              {
                spec.Campaign.options with
                Campaign.tolerance = { Anafault.Detect.tol_v = 0.5; tol_t = 1e-7 };
              };
          }
        in
        check_bool "different" true
          ((ok "compile" (Campaign.compile tighter)).Campaign.fingerprint
          <> pinned_fingerprint));
  ]

(* --- Compile validation ------------------------------------------------ *)

let compile_tests =
  [
    Alcotest.test_case "missing .tran is an error" `Quick (fun () ->
        let without line text =
          String.split_on_char '\n' text
          |> List.filter (fun l -> l <> line)
          |> String.concat "\n"
        in
        let s = { spec with Campaign.deck = without ".tran 10n 4u UIC" deck_text } in
        check_bool "error" true (Result.is_error (Campaign.compile s)));
    Alcotest.test_case "unknown observed node is an error" `Quick (fun () ->
        let s = { spec with Campaign.observed = Some "ghost" } in
        check_bool "error" true (Result.is_error (Campaign.compile s)));
    Alcotest.test_case "garbage deck is an error, not an exception" `Quick (fun () ->
        let s = { spec with Campaign.deck = "inv\nQQ what is this\n.end\n" } in
        check_bool "error" true (Result.is_error (Campaign.compile s)));
    Alcotest.test_case "garbage fault list is an error, not an exception" `Quick
      (fun () ->
        let s = { spec with Campaign.faults = "#1 blah BLAH x y\n" } in
        check_bool "error" true (Result.is_error (Campaign.compile s)));
  ]

(* --- Option validation ------------------------------------------------- *)

(* Each option set is out of range in exactly one field, with the
   message the validator gives for it. *)
let bad_options =
  let d = Campaign.default_options in
  let sim f = { d with Campaign.sim = f d.Campaign.sim } in
  [
    ("samples = 1", { d with Campaign.samples = 1 }, "samples must be at least 2");
    ("domains = 0", { d with Campaign.domains = 0 }, "domains must be at least 1");
    ("batch = -3", { d with Campaign.batch = -3 }, "batch must be non-negative");
    ( "max_iter = 0",
      sim (fun o -> { o with Sim.Engine.max_iter = 0 }),
      "max_iter must be at least 1" );
  ]

let refused_with what expected = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error msg -> check_bool (what ^ ": " ^ msg) true (contains ~needle:expected msg)

let validation_tests =
  [
    Alcotest.test_case "compile refuses out-of-range options" `Quick (fun () ->
        List.iter
          (fun (what, options, expected) ->
            refused_with what expected
              (Campaign.compile { spec with Campaign.options }))
          bad_options);
    Alcotest.test_case "decoding refuses out-of-range options" `Quick (fun () ->
        List.iter
          (fun (what, options, expected) ->
            refused_with ("options: " ^ what) expected
              (Campaign.options_of_json (Campaign.options_to_json options));
            refused_with ("spec: " ^ what) expected
              (Campaign.spec_of_json
                 (Campaign.spec_to_json { spec with Campaign.options })))
          bad_options);
  ]

(* --- Failure string codec ---------------------------------------------- *)

let failure_tests =
  [
    Alcotest.test_case "failure strings round-trip" `Quick (fun () ->
        List.iter
          (fun failure ->
            let s = Outcome.failure_to_string failure in
            match Outcome.failure_of_string s with
            | Error msg -> Alcotest.failf "%s: %s" s msg
            | Ok back -> check_bool s true (back = failure))
          [
            Outcome.Dc_no_convergence "";
            Outcome.Dc_no_convergence "dc failed at t=0";
            Outcome.Tran_step_underflow "h=1e-21";
            Outcome.Singular_matrix "pivot 3";
            Outcome.Bad_injection "no device M9";
            Outcome.Budget_exceeded "1000 iterations";
            Outcome.Crashed "Stack_overflow";
          ]);
    Alcotest.test_case "detail with colons survives" `Quick (fun () ->
        let f = Outcome.Crashed "Failure: nested: detail" in
        check_bool "round trip" true
          (Outcome.failure_of_string (Outcome.failure_to_string f) = Ok f));
    Alcotest.test_case "unknown kind is an error" `Quick (fun () ->
        check_bool "error" true
          (Result.is_error (Outcome.failure_of_string "gremlins: in the matrix")));
  ]

(* --- Failpoints --------------------------------------------------------- *)

module Failpoint = Obs.Failpoint

let failpoint_tests =
  let with_reset f () =
    Failpoint.reset ();
    Fun.protect ~finally:Failpoint.reset f
  in
  [
    Alcotest.test_case "fail fires once" `Quick
      (with_reset (fun () ->
           Failpoint.arm "t.fail" Failpoint.Fail;
           check_bool "armed" true (Failpoint.active "t.fail");
           (match Failpoint.hit "t.fail" with
           | () -> Alcotest.fail "expected Injected"
           | exception Failpoint.Injected name ->
             check_string "payload is the site name" "t.fail" name);
           check_bool "spent" false (Failpoint.active "t.fail");
           Failpoint.hit "t.fail" (* one-shot: second hit is a no-op *)));
    Alcotest.test_case "@N fires on the Nth hit" `Quick
      (with_reset (fun () ->
           Failpoint.arm ~after:3 "t.third" Failpoint.Fail;
           Failpoint.hit "t.third";
           Failpoint.hit "t.third";
           match Failpoint.hit "t.third" with
           | () -> Alcotest.fail "expected Injected on hit 3"
           | exception Failpoint.Injected _ -> ()));
    Alcotest.test_case "unarmed sites are free" `Quick
      (with_reset (fun () ->
           Failpoint.hit "t.nothing";
           check_bool "cut passes through" true
             (Failpoint.cut "t.nothing" "payload" = None)));
    Alcotest.test_case "torn cuts the payload once" `Quick
      (with_reset (fun () ->
           Failpoint.arm "t.torn" (Failpoint.Torn 0.5);
           (match Failpoint.cut "t.torn" "abcdefgh" with
           | Some prefix -> check_string "half the bytes" "abcd" prefix
           | None -> Alcotest.fail "expected a torn prefix");
           check_bool "one-shot" true (Failpoint.cut "t.torn" "abcdefgh" = None)));
    Alcotest.test_case "delay stays armed" `Quick
      (with_reset (fun () ->
           Failpoint.arm "t.delay" (Failpoint.Delay 0.0);
           Failpoint.hit "t.delay";
           Failpoint.hit "t.delay";
           check_bool "still armed" true (Failpoint.active "t.delay")));
    Alcotest.test_case "spec language parses" `Quick
      (with_reset (fun () ->
           ignore
             (ok "configure"
                (Failpoint.configure
                   "job.run=fail, journal.record=delay:0.5@3 ,cache.store.torn=torn:0.25,parsim.session.1=crash"));
           List.iter
             (fun n -> check_bool n true (Failpoint.active n))
             [ "job.run"; "journal.record"; "cache.store.torn"; "parsim.session.1" ]));
    Alcotest.test_case "spec language arms only declared sites" `Quick
      (with_reset (fun () ->
           List.iter
             (fun site ->
               if not (String.contains site '<') then
                 ignore (ok site (Failpoint.configure (site ^ "=fail"))))
             Failpoint.sites;
           ignore (ok "a family member" (Failpoint.configure "parsim.session.12=fail"));
           Failpoint.reset ();
           List.iter
             (fun bad ->
               check_bool bad true (Result.is_error (Failpoint.configure bad)))
             [ "jounral.record=fail"; "parsim.session.x=fail";
               "parsim.session.1x=fail"; "parsim.session.=fail"; "t.private=fail" ];
           (* All or nothing: the good point beside a typo is not armed. *)
           check_bool "typo arms nothing" true
             (Result.is_error (Failpoint.configure "job.run=fail,job.rnu=fail"));
           check_bool "nothing armed" false (Failpoint.active "job.run")));
    Alcotest.test_case "spec language rejects junk" `Quick
      (with_reset (fun () ->
           List.iter
             (fun bad ->
               check_bool bad true (Result.is_error (Failpoint.configure bad)))
             [ "noequals"; "x=explode"; "x=torn:lots"; "x=fail@zero"; "=fail";
               "x=crash:/tmp/c"; "job.run=crash:/tmp/c" ]));
    Alcotest.test_case "load_env arms from the environment" `Quick
      (with_reset (fun () ->
           Unix.putenv Failpoint.env_var "cache.store=fail";
           Fun.protect ~finally:(fun () -> Unix.putenv Failpoint.env_var "")
           @@ fun () ->
           ignore (ok "load_env" (Failpoint.load_env ()));
           check_bool "armed" true (Failpoint.active "cache.store")));
    Alcotest.test_case "load_env is a no-op when unset" `Quick
      (with_reset (fun () ->
           Unix.putenv Failpoint.env_var "";
           ignore (ok "load_env" (Failpoint.load_env ()));
           check_bool "nothing armed" false (Failpoint.active "cache.store")));
  ]

(* --- The write-ahead job queue ------------------------------------------ *)

module Wal = Anafaultd.Queue

let temp_dir () =
  let dir = Filename.temp_file "anaf" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let wal_entry fp = { Wal.fingerprint = fp; client = "ci"; spec }

let wal_tests =
  [
    Alcotest.test_case "pushes survive a reopen, done retires" `Quick (fun () ->
        let path = Filename.concat (temp_dir ()) "queue.wal" in
        let wal, pending = ok "open" (Wal.open_ ~path) in
        check_int "fresh queue is empty" 0 (List.length pending);
        ok "push a" (Wal.push wal (wal_entry "aaa"));
        ok "push b" (Wal.push wal (wal_entry "bbb"));
        check_int "two pending" 2 (Wal.pending wal);
        Wal.close wal;
        (* The reopen is the kill -9 restart: both jobs come back, in
           arrival order. *)
        let wal, pending = ok "reopen" (Wal.open_ ~path) in
        check_bool "replayed in order" true
          (List.map (fun (e : Wal.entry) -> e.Wal.fingerprint) pending
          = [ "aaa"; "bbb" ]);
        Wal.mark_done wal "aaa";
        Wal.close wal;
        let wal, pending = ok "reopen 2" (Wal.open_ ~path) in
        check_bool "only b left" true
          (List.map (fun (e : Wal.entry) -> e.Wal.fingerprint) pending
          = [ "bbb" ]);
        Wal.close wal);
    Alcotest.test_case "duplicate pushes collapse" `Quick (fun () ->
        let path = Filename.concat (temp_dir ()) "queue.wal" in
        let wal, _ = ok "open" (Wal.open_ ~path) in
        ok "push" (Wal.push wal (wal_entry "aaa"));
        ok "push twin" (Wal.push wal (wal_entry "aaa"));
        check_int "one pending" 1 (Wal.pending wal);
        Wal.close wal;
        let wal, pending = ok "reopen" (Wal.open_ ~path) in
        check_int "still one" 1 (List.length pending);
        Wal.close wal);
    Alcotest.test_case "a torn tail is skipped, not fatal" `Quick (fun () ->
        let path = Filename.concat (temp_dir ()) "queue.wal" in
        let wal, _ = ok "open" (Wal.open_ ~path) in
        ok "push" (Wal.push wal (wal_entry "aaa"));
        Wal.close wal;
        (* The crash tore the last append mid-line. *)
        let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
        output_string oc "{\"op\":\"push\",\"fingerprint\":\"bb";
        close_out oc;
        let wal, pending = ok "reopen" (Wal.open_ ~path) in
        check_bool "intact push survives, torn one vanishes" true
          (List.map (fun (e : Wal.entry) -> e.Wal.fingerprint) pending
          = [ "aaa" ]);
        Wal.close wal);
    Alcotest.test_case "reopen compacts done records away" `Quick (fun () ->
        let path = Filename.concat (temp_dir ()) "queue.wal" in
        let wal, _ = ok "open" (Wal.open_ ~path) in
        ok "push a" (Wal.push wal (wal_entry "aaa"));
        ok "push b" (Wal.push wal (wal_entry "bbb"));
        Wal.mark_done wal "aaa";
        Wal.close wal;
        let wal, _ = ok "reopen" (Wal.open_ ~path) in
        Wal.close wal;
        let lines =
          In_channel.with_open_text path @@ fun ic ->
          In_channel.input_lines ic
        in
        (* header + the one live push: the file tracks queue depth, not
           daemon lifetime *)
        check_int "compacted to header + 1 push" 2 (List.length lines));
    Alcotest.test_case "queue.append failpoint reaches the caller" `Quick
      (fun () ->
        let path = Filename.concat (temp_dir ()) "queue.wal" in
        let wal, _ = ok "open" (Wal.open_ ~path) in
        Failpoint.reset ();
        Fun.protect ~finally:Failpoint.reset @@ fun () ->
        Failpoint.arm "queue.append" Failpoint.Fail;
        (match Wal.push wal (wal_entry "aaa") with
        | exception Failpoint.Injected _ -> ()
        | Ok () -> Alcotest.fail "expected the failpoint to fire"
        | Error _ -> Alcotest.fail "expected the failpoint, not an IO error");
        (* The failed append journalled nothing. *)
        ok "push after" (Wal.push wal (wal_entry "aaa"));
        check_int "one pending" 1 (Wal.pending wal);
        Wal.close wal);
  ]

(* --- The result cache ---------------------------------------------------- *)

module Cache = Anafaultd.Cache

let cache_value n = J.Obj [ ("data", J.String (String.make n 'x')) ]

(* Bytes of the *.json entries on disk - what the budget bounds. *)
let cache_dir_bytes dir =
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name ".json" then
        acc + (Unix.stat (Filename.concat dir name)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let cache_tests =
  [
    Alcotest.test_case "store / find round trip" `Quick (fun () ->
        let c = ok "create" (Cache.create ~dir:(temp_dir ()) ()) in
        Cache.store c "aa" (cache_value 10);
        check_bool "found" true (Cache.find c "aa" = Some (cache_value 10));
        check_bool "miss" true (Cache.find c "bb" = None);
        check_int "one store" 1 (Cache.stores c);
        check_int "one hit" 1 (Cache.hits c);
        check_int "one miss" 1 (Cache.misses c));
    Alcotest.test_case "keys that could escape the directory are refused"
      `Quick (fun () ->
        let dir = temp_dir () in
        let c = ok "create" (Cache.create ~dir ()) in
        Cache.store c "../evil" (cache_value 10);
        check_bool "not stored" true (Cache.find c "../evil" = None);
        check_int "nothing on disk" 0 (Array.length (Sys.readdir dir)));
    Alcotest.test_case "LRU eviction keeps the directory under budget" `Quick
      (fun () ->
        (* Measure one entry, then budget for two. *)
        let probe = ok "create" (Cache.create ~dir:(temp_dir ()) ()) in
        Cache.store probe "aa" (cache_value 100);
        let entry = Cache.total_bytes probe in
        check_bool "probe stored" true (entry > 100);
        let budget = (2 * entry) + 4 in
        let dir = temp_dir () in
        let c = ok "create" (Cache.create ~budget_bytes:budget ~dir ()) in
        Cache.store c "aa" (cache_value 100);
        Cache.store c "bb" (cache_value 100);
        check_int "both fit" 0 (Cache.evictions c);
        (* Touch aa so bb is the least recently used... *)
        check_bool "aa hits" true (Cache.find c "aa" <> None);
        Cache.store c "cc" (cache_value 100);
        (* ...and gets evicted when cc arrives. *)
        check_int "one eviction" 1 (Cache.evictions c);
        check_bool "bb evicted" true (Cache.find c "bb" = None);
        check_bool "aa kept" true (Cache.find c "aa" <> None);
        check_bool "cc kept" true (Cache.find c "cc" <> None);
        check_bool "accounting under budget" true (Cache.total_bytes c <= budget);
        check_bool "directory under budget" true (cache_dir_bytes dir <= budget));
    Alcotest.test_case "mtime seeds LRU order across a reopen" `Quick (fun () ->
        let dir = temp_dir () in
        let c = ok "create" (Cache.create ~dir ()) in
        Cache.store c "aa" (cache_value 100);
        let entry = Cache.total_bytes c in
        Unix.sleepf 0.02;
        Cache.store c "bb" (cache_value 100);
        (* Reopen with room for only one entry: the older file goes. *)
        let c = ok "reopen" (Cache.create ~budget_bytes:(entry + 4) ~dir ()) in
        Cache.store c "cc" (cache_value 100);
        check_bool "oldest evicted first" true (Cache.find c "aa" = None);
        check_bool "newest entry kept" true (Cache.find c "cc" <> None));
    Alcotest.test_case "an entry larger than the budget is not stored" `Quick
      (fun () ->
        let dir = temp_dir () in
        let c = ok "create" (Cache.create ~budget_bytes:64 ~dir ()) in
        Cache.store c "aa" (cache_value 1000);
        check_bool "skipped" true (Cache.find c "aa" = None);
        check_int "nothing on disk" 0 (cache_dir_bytes dir));
    Alcotest.test_case "a corrupt entry is quarantined, not fatal" `Quick
      (fun () ->
        let dir = temp_dir () in
        let c = ok "create" (Cache.create ~dir ()) in
        Cache.store c "aa" (cache_value 100);
        (* Bit rot: the file no longer matches its checksum header. *)
        let path = Filename.concat dir "aa.json" in
        let oc = open_out path in
        output_string oc "garbage that is not an entry\n";
        close_out oc;
        check_bool "served as a miss" true (Cache.find c "aa" = None);
        check_int "counted" 1 (Cache.corrupt c);
        check_bool "set aside for post-mortems" true
          (Sys.file_exists (path ^ ".corrupt"));
        (* The slot is reusable. *)
        Cache.store c "aa" (cache_value 50);
        check_bool "healthy again" true (Cache.find c "aa" = Some (cache_value 50)));
    Alcotest.test_case "a torn write (failpoint) quarantines on read" `Quick
      (fun () ->
        Failpoint.reset ();
        Fun.protect ~finally:Failpoint.reset @@ fun () ->
        let dir = temp_dir () in
        let c = ok "create" (Cache.create ~dir ()) in
        Failpoint.arm "cache.store.torn" (Failpoint.Torn 0.5);
        Cache.store c "aa" (cache_value 100);
        (* The torn entry was committed; validation catches it. *)
        check_bool "torn entry is a miss" true (Cache.find c "aa" = None);
        check_int "quarantined" 1 (Cache.corrupt c);
        (* The failpoint is one-shot: the retry stores a good entry. *)
        Cache.store c "aa" (cache_value 100);
        check_bool "second store is durable" true
          (Cache.find c "aa" = Some (cache_value 100)));
  ]

(* --- Protocol robustness ------------------------------------------------- *)

let channel_of_string s =
  let path = Filename.temp_file "proto" ".ndjson" in
  Out_channel.with_open_bin path (fun oc -> output_string oc s);
  open_in_bin path

(* One row per decoder rule: a missing optional field takes its default,
   an ill-formed record is refused.  A row's extra fields ride first, so
   they override the base record's on an assoc lookup.  Every row holds for the decoders
   as they were before they shared Obs.Json's field vocabulary, and
   after. *)
let decoder_table () =
  let obj l = J.Obj l in
  let s v = J.String v and i v = J.Int v and f v = J.Float v in
  let refused = Result.is_error in
  let spec_json = Campaign.spec_to_json spec in
  let submit extra = obj (extra @ [ ("cmd", s "submit"); ("spec", spec_json) ]) in
  let extract lift = obj [ ("cmd", s "extract"); ("lift", obj lift) ] in
  let layout = ("layout", s "L 1 0 0 10 10") in
  let faults = fault_array () in
  let result extra =
    Outcome.result_of_json ~faults
      (obj
         (extra
         @ [ ("index", i 0); ("id", s "#1"); ("outcome", s "undetected");
             ("cpu_seconds", f 0.5) ]))
  in
  let event extra =
    Obs.event_of_json
      (obj
         (extra
         @ [ ("ev", s "count"); ("name", s "x"); ("domain", i 0);
             ("time", f 1.0); ("n", i 2) ]))
  in
  let extracted extra =
    Protocol.extracted_of_json
      (obj
         (extra
         @ [ ("event", s "extracted"); ("fingerprint", s "lift-aa");
             ("faults", s ""); ("sites_considered", i 1); ("line_opens", i 0);
             ("contact_opens", i 0); ("stuck_opens", i 0) ]))
  in
  let journal header =
    let path = temp_path ".journal" in
    write_file path (header ^ "\n");
    Journal.start ~path ~fingerprint:"fp" ~resume:true ~faults
  in
  let journal_header ?(version = 1) ?(fp = "fp") ?(n = Array.length faults) () =
    J.to_string
      (obj [ ("journal", s "anafault"); ("version", i version);
             ("fingerprint", s fp); ("faults", i n) ])
  in
  [
    ( "event: attrs default to none",
      match event [] with Ok (Obs.Count { attrs = []; _ }) -> true | _ -> false );
    ( "event: a span's parent defaults to none",
      match
        Obs.event_of_json
          (obj [ ("ev", s "span"); ("name", s "x"); ("domain", i 0);
                 ("start", f 0.0); ("dur", f 1.0) ])
      with
      | Ok (Obs.Span { parent = None; _ }) -> true
      | _ -> false );
    ("event: attrs must be an object", refused (event [ ("attrs", i 3) ]));
    ("event: an unknown kind is refused", refused (event [ ("ev", s "gauge") ]));
    ("event: n must be an integer", refused (event [ ("n", f 2.5) ]));
    ( "spec: observed and options default",
      Campaign.spec_of_json
        (obj [ ("deck", s deck_text); ("faults", s spec.Campaign.faults) ])
      = Ok { spec with Campaign.observed = None } );
    ( "options: absent fields keep the defaults",
      Campaign.options_of_json (obj [ ("samples", i 7) ])
      = Ok { Campaign.default_options with Campaign.samples = 7 } );
    ( "options: a legacy solver key is an unknown field",
      Campaign.options_of_json
        (obj [ ("sim", obj [ ("solver", s "dense"); ("max_iter", i 77) ]) ])
      = Ok
          {
            Campaign.default_options with
            Campaign.sim = { Sim.Engine.default_options with Sim.Engine.max_iter = 77 };
          } );
    ("options: samples must be an integer",
      refused (Campaign.options_of_json (obj [ ("samples", s "7") ])));
    ("spec: the deck is required",
      refused (Campaign.spec_of_json (obj [ ("faults", s "") ])));
    ("spec: another record kind is refused",
      refused (Campaign.spec_of_json (obj [ ("anafault", s "result"); ("deck", s ""); ("faults", s "") ])));
    ("spec: another version is refused",
      refused (Campaign.spec_of_json (obj [ ("version", i 2); ("deck", s ""); ("faults", s "") ])));
    ( "result: attempts and stats default",
      match result [] with
      | Ok (0, r) ->
        r.Outcome.attempts = []
        && r.Outcome.stats.Sim.Engine.newton_iterations = 0
      | _ -> false );
    ("result: an index out of range is refused", refused (result [ ("index", i 9) ]));
    ("result: a mismatched id is refused", refused (result [ ("id", s "#2") ]));
    ("result: an unknown outcome is refused", refused (result [ ("outcome", s "maybe") ]));
    ("result: attempts must be a list", refused (result [ ("attempts", i 1) ]));
    ( "submit: client and deadline default to none",
      Protocol.request_of_json (submit [])
      = Ok (Protocol.Submit { spec; client = None; deadline_s = None }) );
    ( "submit: an integral deadline is a number",
      Protocol.request_of_json (submit [ ("deadline_s", i 3) ])
      = Ok (Protocol.Submit { spec; client = None; deadline_s = Some 3.0 }) );
    ("submit: deadline_s = 0 is refused", refused (Protocol.request_of_json (submit [ ("deadline_s", f 0.0) ])));
    ("submit: deadline_s < 0 is refused", refused (Protocol.request_of_json (submit [ ("deadline_s", i (-1)) ])));
    ("submit: deadline_s must be a number", refused (Protocol.request_of_json (submit [ ("deadline_s", s "soon") ])));
    ("submit: client must be a string", refused (Protocol.request_of_json (submit [ ("client", i 7) ])));
    ( "extract: the lift options default",
      match Protocol.request_of_json (extract [ layout ]) with
      | Ok (Protocol.Extract { lift; simulate = None; client = None; deadline_s = None }) ->
        lift.Protocol.p_min = 0.0 && (not lift.Protocol.uniform_pdf)
        && lift.Protocol.merge_equivalent && lift.Protocol.tile_nm = 0
      | _ -> false );
    ("extract: tile_nm < 0 is refused", refused (Protocol.request_of_json (extract [ layout; ("tile_nm", i (-1)) ])));
    ("extract: tile_nm must be an integer", refused (Protocol.request_of_json (extract [ layout; ("tile_nm", f 1.5) ])));
    ("extract: the layout is required", refused (Protocol.request_of_json (extract [])));
    ("extract: p_min must be a number", refused (Protocol.request_of_json (extract [ layout; ("p_min", s "low") ])));
    ("cancel: the fingerprint is required", refused (Protocol.request_of_json (obj [ ("cmd", s "cancel") ])));
    ( "rejected: the message defaults to empty",
      Protocol.rejected_of_json
        (obj [ ("event", s "rejected"); ("reason", s "queue_full") ])
      = Ok (Some (Protocol.Queue_full, "")) );
    ("rejected: an unknown reason is refused",
      refused (Protocol.rejected_of_json (obj [ ("event", s "rejected"); ("reason", s "tired") ])));
    ("rejected: other objects fall through", Protocol.rejected_of_json (obj [ ("event", s "progress") ]) = Ok None);
    ( "extracted: cached defaults to false",
      match extracted [ ("bridging", i 3) ] with
      | Ok (Some e) -> (not e.Protocol.ex_cached) && e.Protocol.ex_bridging = 3
      | _ -> false );
    ("extracted: a missing count is refused", refused (extracted []));
    ("journal: a well-formed header opens", Result.is_ok (journal (journal_header ())));
    ("journal: another version is refused", refused (journal (journal_header ~version:2 ())));
    ("journal: another campaign is refused", refused (journal (journal_header ~fp:"other" ())));
    ("journal: another fault count is refused", refused (journal (journal_header ~n:99 ())));
    ("journal: a header that is not JSON is refused", refused (journal "{\"journal\":"));
    ( "queue: damaged records are skipped on replay",
      let dir = temp_dir () in
      let path = Filename.concat dir "queue.wal" in
      let push fp extra =
        J.to_string (obj (("op", s "push") :: ("fingerprint", s fp) :: ("spec", spec_json) :: extra))
      in
      write_file path
        (String.concat "\n"
           [ {|{"queue":"anafaultd","version":1}|};
             push "aa" [ ("client", s "ci") ];
             push "bb" [] (* no client *);
             push "cc" [ ("client", i 7) ];
             {|{"op":"done","fingerprint":7}|};
             {|{"op":7}|};
             {|{"op":"push","finger|} ]);
      match Wal.open_ ~path with
      | Ok (wal, pending) ->
        Wal.close wal;
        List.map (fun e -> e.Wal.fingerprint) pending = [ "aa" ]
      | Error _ -> false );
    ( "cache: an entry that does not validate is a quarantined miss",
      let dir = temp_dir () in
      let c = ok "create" (Cache.create ~dir ()) in
      write_file (Filename.concat dir "aa.json") {|{"cache":"anafault","version":1}|};
      Cache.find c "aa" = None && Cache.corrupt c = 1 );
  ]

let protocol_tests =
  [
    Alcotest.test_case "decoders keep their defaults and refusals" `Quick
      (fun () ->
        List.iter (fun (row, holds) -> check_bool row true holds) (decoder_table ()));
    Alcotest.test_case "malformed line: typed error, stream continues" `Quick
      (fun () ->
        let ic = channel_of_string "this is not json\n{\"cmd\":\"ping\"}\n" in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        (match Protocol.recv ic with
        | Error msg ->
          check_bool "names the problem" true
            (String.length msg > 0)
        | Ok _ -> Alcotest.fail "expected a decode error");
        (* The channel sits at the next line boundary. *)
        match ok "recv after error" (Protocol.recv ic) with
        | Some json ->
          check_bool "ping decodes" true
            (ok "request" (Protocol.request_of_json json) = Protocol.Ping)
        | None -> Alcotest.fail "stream ended early");
    Alcotest.test_case "truncated NDJSON at EOF is a typed error" `Quick
      (fun () ->
        let ic = channel_of_string "{\"cmd\":\"sub" in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        match Protocol.recv ic with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a decode error");
    Alcotest.test_case "oversized request: typed error, line drained" `Quick
      (fun () ->
        let ic =
          channel_of_string (String.make 100 'a' ^ "\n{\"cmd\":\"ping\"}\n")
        in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        (match Protocol.recv ~limit_bytes:32 ic with
        | Error msg ->
          check_bool "says oversized" true
            (String.length msg > 0
            && String.sub msg (String.length msg - 5) 5 = "bytes")
        | Ok _ -> Alcotest.fail "expected the size bound to trip");
        match ok "recv after oversize" (Protocol.recv ~limit_bytes:32 ic) with
        | Some json ->
          check_bool "next line intact" true
            (ok "request" (Protocol.request_of_json json) = Protocol.Ping)
        | None -> Alcotest.fail "stream ended early");
    Alcotest.test_case "unknown and ill-shaped requests are typed errors"
      `Quick (fun () ->
        check_bool "unknown cmd" true
          (Result.is_error
             (Protocol.request_of_json (J.Obj [ ("cmd", J.String "fly") ])));
        check_bool "non-object" true
          (Result.is_error (Protocol.request_of_json (J.String "ping")));
        check_bool "missing spec" true
          (Result.is_error
             (Protocol.request_of_json (J.Obj [ ("cmd", J.String "submit") ])));
        check_bool "ill-typed client" true
          (Result.is_error
             (Protocol.request_of_json
                (J.Obj
                   [
                     ("cmd", J.String "submit");
                     ("spec", Campaign.spec_to_json spec);
                     ("client", J.Int 7);
                   ]))));
    Alcotest.test_case "rejection codec round-trips" `Quick (fun () ->
        List.iter
          (fun reason ->
            let json = Protocol.rejected_to_json ~reason ~message:"full up" in
            match ok "rejected_of_json" (Protocol.rejected_of_json json) with
            | Some (back, msg) ->
              check_bool "reason" true (back = reason);
              check_string "message" "full up" msg
            | None -> Alcotest.fail "rejection not recognised")
          [ Protocol.Queue_full; Protocol.Quota_exceeded ];
        (* Non-rejections fall through for the event codec. *)
        check_bool "event is not a rejection" true
          (ok "fall through"
             (Protocol.rejected_of_json
                (Campaign.event_to_json (Campaign.Cache_hit { fingerprint = "x" })))
          = None));
  ]

(* --- The daemon, in process -------------------------------------------- *)

let daemon_socket_dir () =
  (* sun_path is ~108 chars; build a short path under the system temp
     dir rather than anywhere near _build. *)
  let dir = Filename.temp_file "anafd" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec try_connect attempts =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when attempts > 0 ->
      Thread.delay 0.05;
      try_connect (attempts - 1)
  in
  try_connect 100

let drain_events ~faults ic =
  let rec loop acc =
    match ok "recv" (Protocol.recv ic) with
    | None -> Alcotest.fail "daemon closed the stream early"
    | Some json -> begin
      match ok "event" (Campaign.event_of_json ~faults json) with
      | (Campaign.Finished _ | Campaign.Failed _ | Campaign.Cancelled _) as ev
        -> List.rev (ev :: acc)
      | ev -> loop (ev :: acc)
    end
  in
  loop []

let submit_and_wait ?client ?deadline_s ?(spec = spec) ~faults path =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Protocol.send oc
    (Protocol.request_to_json (Protocol.Submit { spec; client; deadline_s }));
  drain_events ~faults ic

let one_shot path request =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Protocol.send oc (Protocol.request_to_json request);
  match ok "recv" (Protocol.recv ic) with
  | Some json -> json
  | None -> Alcotest.fail "daemon closed the connection without replying"

(* A second campaign with its own fingerprint (two faults instead of
   three), for tests that need distinct jobs in flight. *)
let spec2 =
  {
    spec with
    Campaign.faults =
      Faults.Fault_list.to_string (List.filteri (fun i _ -> i < 2) fixture_faults);
  }

let fault_array2 () =
  Array.of_list (ok "compile spec2" (Campaign.compile spec2)).Campaign.faults

let spec3 =
  {
    spec with
    Campaign.faults =
      Faults.Fault_list.to_string (List.filteri (fun i _ -> i < 1) fixture_faults);
  }

let submit_expect_rejected ?client ~spec path =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Protocol.send oc
    (Protocol.request_to_json
       (Protocol.Submit { spec; client; deadline_s = None }));
  match ok "recv" (Protocol.recv ic) with
  | None -> Alcotest.fail "daemon closed without replying"
  | Some json -> begin
    match ok "rejected" (Protocol.rejected_of_json json) with
    | Some (reason, _message) -> reason
    | None -> Alcotest.failf "expected a rejection, got %s" (J.to_string json)
  end

let stat_int json name =
  match json with
  | J.Obj fields -> begin
    match List.assoc_opt name fields with Some (J.Int n) -> n | _ -> -1
  end
  | _ -> -1

let rec poll ?(tries = 400) what f =
  if tries = 0 then Alcotest.failf "timed out waiting for %s" what
  else if f () then ()
  else begin
    Thread.delay 0.05;
    poll ~tries:(tries - 1) what f
  end

let finished_of events =
  match
    List.filter_map (function Campaign.Finished r -> Some r | _ -> None) events
  with
  | [ r ] -> r
  | _ -> Alcotest.fail "expected exactly one Finished event"

let daemon_tests =
  [
    Alcotest.test_case "a failed cache write still finishes the job" `Slow
      (fun () ->
        Failpoint.reset ();
        Fun.protect ~finally:Failpoint.reset @@ fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          Anafaultd.Server.default_config ~socket_path
            ~work_dir:(Filename.concat dir "work")
        in
        (* Disk full, EACCES, or this: the result cache refuses the
           write after the campaign was fully simulated and journalled. *)
        Failpoint.arm "cache.store" Failpoint.Fail;
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let faults = fault_array () in
        let first = finished_of (submit_and_wait ~faults socket_path) in
        check_bool "the failpoint fired" false (Failpoint.active "cache.store");
        check_bool "not cached" false first.Campaign.cached;
        (* Nothing was cached, so the resubmission runs again - and
           finds every fault in the campaign journal. *)
        let events = submit_and_wait ~faults socket_path in
        check_bool "no cache hit" false
          (List.exists (function Campaign.Cache_hit _ -> true | _ -> false) events);
        check_string "identical detection tables"
          (Anafault.Report.csv_of_results first.Campaign.results)
          (Anafault.Report.csv_of_results (finished_of events).Campaign.results);
        let stats = one_shot socket_path Protocol.Stats in
        check_int "two jobs" 2 (stat_int stats "jobs");
        check_int "each fault simulated once, by the first job" 3
          (stat_int stats "faults_simulated");
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
    Alcotest.test_case "submit, cache hit, stats, shutdown" `Slow (fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          Anafaultd.Server.default_config ~socket_path
            ~work_dir:(Filename.concat dir "work")
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let faults = fault_array () in
        (* First submission simulates. *)
        let events = submit_and_wait ~faults socket_path in
        let finished = function
          | Campaign.Finished r -> Some r
          | _ -> None
        in
        let first =
          match List.filter_map finished events with
          | [ r ] -> r
          | _ -> Alcotest.fail "expected exactly one Finished event"
        in
        check_bool "first run is not cached" false first.Campaign.cached;
        check_bool "accepted preceded it" true
          (List.exists (function Campaign.Accepted _ -> true | _ -> false) events);
        (* Second submission of the same spec is served from the cache. *)
        let events2 = submit_and_wait ~faults socket_path in
        check_bool "cache hit announced" true
          (List.exists (function Campaign.Cache_hit _ -> true | _ -> false) events2);
        let second =
          match List.filter_map finished events2 with
          | [ r ] -> r
          | _ -> Alcotest.fail "expected exactly one Finished event"
        in
        check_bool "second run is cached" true second.Campaign.cached;
        check_string "identical detection tables"
          (Anafault.Report.csv_of_results first.Campaign.results)
          (Anafault.Report.csv_of_results second.Campaign.results);
        (* Counters saw one job and one cache hit. *)
        (match one_shot socket_path Protocol.Stats with
        | J.Obj fields ->
          check_bool "one job" true (List.assoc "jobs" fields = J.Int 1);
          check_bool "one cache hit" true
            (List.assoc "cache_hits" fields = J.Int 1)
        | _ -> Alcotest.fail "stats: expected an object");
        (* Shutdown stops the server thread. *)
        (match one_shot socket_path Protocol.Shutdown with
        | J.Obj [ ("ok", J.Bool true) ] -> ()
        | _ -> Alcotest.fail "shutdown: expected ok");
        Thread.join server);
    Alcotest.test_case "malformed wire input never kills the session" `Slow
      (fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          Anafaultd.Server.default_config ~socket_path
            ~work_dir:(Filename.concat dir "work")
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let faults = fault_array () in
        let fd = connect socket_path in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            let expect_failed what line =
              output_string oc line;
              output_char oc '\n';
              flush oc;
              match ok "recv" (Protocol.recv ic) with
              | None -> Alcotest.failf "%s: daemon closed the session" what
              | Some json -> begin
                match ok "event" (Campaign.event_of_json ~faults json) with
                | Campaign.Failed _ -> ()
                | _ -> Alcotest.failf "%s: expected a typed failed event" what
              end
            in
            (* Garbage, an unknown command, a wrong shape: each answers
               with a typed failure and the session keeps serving. *)
            expect_failed "not json" "}{ this is not json";
            expect_failed "unknown cmd" "{\"cmd\":\"levitate\"}";
            expect_failed "non-object" "\"ping\"";
            expect_failed "missing spec" "{\"cmd\":\"submit\"}";
            (* ...as the follow-up valid requests prove. *)
            Protocol.send oc (Protocol.request_to_json Protocol.Ping);
            (match ok "recv" (Protocol.recv ic) with
            | Some (J.Obj [ ("ok", J.Bool true) ]) -> ()
            | _ -> Alcotest.fail "ping after garbage: expected ok");
            Protocol.send oc
              (Protocol.request_to_json
                 (Protocol.Submit { spec; client = None; deadline_s = None }));
            let result = finished_of (drain_events ~faults ic) in
            check_int "campaign still runs" 3
              (List.length result.Campaign.results));
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
    Alcotest.test_case "full queue and spent quota reject with types" `Slow
      (fun () ->
        Obs.Failpoint.reset ();
        Fun.protect ~finally:Obs.Failpoint.reset @@ fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          {
            (Anafaultd.Server.default_config ~socket_path
               ~work_dir:(Filename.concat dir "work"))
            with
            Anafaultd.Server.queue_limit = 2;
            client_quota = 1;
          }
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        (* Hold each job in the scheduler for a beat so the queue stays
           occupied while we probe the admission rules (Delay re-arms on
           every hit). *)
        Obs.Failpoint.arm "job.run" (Obs.Failpoint.Delay 1.0);
        let first =
          Thread.create
            (fun () ->
              ignore (submit_and_wait ~client:"ci" ~faults:(fault_array ())
                        socket_path))
            ()
        in
        poll "the first job to be admitted" (fun () ->
            stat_int (one_shot socket_path Protocol.Stats) "jobs" >= 1);
        (* Client ci already holds its one slot: a second, distinct
           campaign from the same client is quota_exceeded (the queue
           itself still has room). *)
        check_bool "quota_exceeded" true
          (submit_expect_rejected ~client:"ci" ~spec:spec2 socket_path
          = Protocol.Quota_exceeded);
        (* Another client is welcome to the remaining queue slot... *)
        let second =
          Thread.create
            (fun () ->
              ignore (submit_and_wait ~client:"bob" ~spec:spec2
                        ~faults:(fault_array2 ()) socket_path))
            ()
        in
        poll "the second job to be admitted" (fun () ->
            stat_int (one_shot socket_path Protocol.Stats) "jobs" >= 2);
        (* ...which fills the queue: a third fingerprint - whoever
           submits it - is queue_full. *)
        check_bool "queue_full" true
          (submit_expect_rejected ~spec:spec3 socket_path = Protocol.Queue_full);
        Thread.join first;
        Thread.join second;
        (* Rejections are counted. *)
        check_bool "rejected stat" true
          (stat_int (one_shot socket_path Protocol.Stats) "rejected" >= 2);
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
    Alcotest.test_case "queued jobs survive a restart (WAL replay)" `Slow
      (fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let work_dir = Filename.concat dir "work" in
        Unix.mkdir work_dir 0o755;
        (* The previous daemon life accepted this job and was killed
           before running it: all that remains is its WAL record. *)
        let fingerprint = (compile ()).Campaign.fingerprint in
        let wal, pending =
          ok "open wal" (Wal.open_ ~path:(Filename.concat work_dir "queue.wal"))
        in
        check_int "fresh wal" 0 (List.length pending);
        ok "push" (Wal.push wal { Wal.fingerprint; client = "ci"; spec });
        Wal.close wal;
        let cfg =
          Anafaultd.Server.default_config ~socket_path ~work_dir
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let faults = fault_array () in
        (* The restarted daemon finishes the job with no client attached. *)
        poll "the replayed job to finish" (fun () ->
            let stats = one_shot socket_path Protocol.Stats in
            stat_int stats "replayed" = 1
            && stat_int stats "faults_simulated" = 3);
        (* The resubmitting client is served from the cache. *)
        let events = submit_and_wait ~faults socket_path in
        check_bool "cache hit" true
          (List.exists
             (function Campaign.Cache_hit _ -> true | _ -> false)
             events);
        check_bool "result is cached" true (finished_of events).Campaign.cached;
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
    Alcotest.test_case "extract: cache, and chain into simulation" `Slow
      (fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          Anafaultd.Server.default_config ~socket_path
            ~work_dir:(Filename.concat dir "work")
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        (* A two-net metal1 layout whose labels name the inverter deck's
           nets, so the extracted bridge is simulatable against [spec]'s
           circuit. *)
        let layout =
          let b = Layout.Builder.create Layout.Tech.default in
          Layout.Builder.rect b Layout.Layer.Metal1
            (Geom.Rect.make 0 0 20_000 1_000);
          Layout.Builder.rect b Layout.Layer.Metal1
            (Geom.Rect.make 0 3_000 20_000 4_000);
          Layout.Builder.label b Layout.Layer.Metal1
            (Geom.Point.make 100 500) "vdd";
          Layout.Builder.label b Layout.Layer.Metal1
            (Geom.Point.make 100 3_500) "out";
          Layout.Cif.to_string (Layout.Builder.finish b)
        in
        let lift =
          {
            Protocol.layout;
            p_min = 0.0;
            uniform_pdf = false;
            merge_equivalent = true;
            tile_nm = 0;
          }
        in
        (* Send one extract request and hand the answer plus the still
           open stream to [k]. *)
        let extract ?simulate k =
          let fd = connect socket_path in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
          @@ fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          Protocol.send oc
            (Protocol.request_to_json
               (Protocol.Extract
                  { lift; simulate; client = None; deadline_s = None }));
          match ok "recv" (Protocol.recv ic) with
          | None -> Alcotest.fail "daemon closed before answering"
          | Some json -> begin
            match ok "extracted" (Protocol.extracted_of_json json) with
            | Some e -> k e ic
            | None ->
              Alcotest.failf "expected an extracted object, got %s"
                (J.to_string json)
          end
        in
        (* The same bytes as the serial extractor on the parsed layout. *)
        let serial =
          let mask = Layout.Cif.of_string ~tech:Layout.Tech.default layout in
          Faults.Fault_list.to_string
            (Defects.Lift.ranked
               (Defects.Lift.run
                  ~options:{ Defects.Lift.default_options with p_min = 0.0 }
                  (Extract.Extractor.extract mask)))
        in
        (* First extraction computes. *)
        let first =
          extract (fun e _ic ->
              check_bool "not cached" false e.Protocol.ex_cached;
              check_string "serial bytes" serial e.Protocol.ex_faults;
              check_bool "lift fingerprint" true
                (String.sub e.Protocol.ex_fingerprint 0 5 = "lift-");
              check_bool "found the bridge" true (e.Protocol.ex_bridging >= 1);
              (* The answer is fault-list interface text. *)
              let parsed = Faults.Fault_list.of_string e.Protocol.ex_faults in
              check_int "faults parse" e.Protocol.ex_sites
                (max e.Protocol.ex_sites (List.length parsed));
              check_bool "bridges out and vdd" true
                (List.exists
                   (fun f ->
                     match f.Faults.Fault.kind with
                     | Faults.Fault.Bridge { net_a; net_b } ->
                       List.sort compare [ net_a; net_b ] = [ "out"; "vdd" ]
                     | _ -> false)
                   parsed);
              e)
        in
        (* Second extraction of the same spec is a cache hit, byte for
           byte. *)
        extract (fun e _ic ->
            check_bool "cached" true e.Protocol.ex_cached;
            check_string "same bytes" first.Protocol.ex_faults
              e.Protocol.ex_faults);
        (* Extract-then-simulate: the embedded spec's faults field is
           replaced by the extracted list and the usual event stream
           follows on the same connection. *)
        let sim_spec = { spec with Campaign.faults = "" } in
        extract ~simulate:sim_spec (fun e ic ->
            let faults =
              Array.of_list
                (ok "compile chained"
                   (Campaign.compile
                      { spec with Campaign.faults = e.Protocol.ex_faults }))
                  .Campaign.faults
            in
            let events = drain_events ~faults ic in
            check_bool "accepted" true
              (List.exists
                 (function Campaign.Accepted _ -> true | _ -> false)
                 events);
            let result = finished_of events in
            check_int "simulated the extracted list" (Array.length faults)
              (List.length result.Campaign.results));
        (* Counters: three extractions, two answered from the cache; the
           chained simulation was one ordinary job. *)
        let stats = one_shot socket_path Protocol.Stats in
        check_int "extracts" 3 (stat_int stats "extracts");
        check_int "extract hits" 2 (stat_int stats "extract_hits");
        check_int "jobs" 1 (stat_int stats "jobs");
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
    Alcotest.test_case "identical in-flight submissions coalesce" `Slow
      (fun () ->
        Obs.Failpoint.reset ();
        Fun.protect ~finally:Obs.Failpoint.reset @@ fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          Anafaultd.Server.default_config ~socket_path
            ~work_dir:(Filename.concat dir "work")
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let faults = fault_array () in
        (* Pace the run so the twin arrives while it is in flight. *)
        Obs.Failpoint.arm "journal.record" (Obs.Failpoint.Delay 0.3);
        let first = ref [] in
        let submitter =
          Thread.create (fun () -> first := submit_and_wait ~faults socket_path) ()
        in
        poll "the first job to be admitted" (fun () ->
            stat_int (one_shot socket_path Protocol.Stats) "jobs" >= 1);
        let second = submit_and_wait ~faults socket_path in
        Thread.join submitter;
        let csv events =
          Anafault.Report.csv_of_results (finished_of events).Campaign.results
        in
        check_string "both clients get the same table" (csv !first) (csv second);
        let stats = one_shot socket_path Protocol.Stats in
        check_int "one job" 1 (stat_int stats "jobs");
        check_int "one coalesced submission" 1 (stat_int stats "coalesced");
        check_int "each fault simulated once" 3 (stat_int stats "faults_simulated");
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
    Alcotest.test_case "a submit with out-of-range options is refused" `Slow
      (fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          Anafaultd.Server.default_config ~socket_path
            ~work_dir:(Filename.concat dir "work")
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let faults = fault_array () in
        List.iter
          (fun (what, options, expected) ->
            match
              submit_and_wait ~spec:{ spec with Campaign.options } ~faults socket_path
            with
            | [ Campaign.Failed { message } ] ->
              check_bool (what ^ ": " ^ message) true (contains ~needle:expected message)
            | _ -> Alcotest.failf "%s: expected one Failed event" what)
          bad_options;
        let stats = one_shot socket_path Protocol.Stats in
        check_int "no job admitted" 0 (stat_int stats "jobs");
        check_int "nothing simulated" 0 (stat_int stats "faults_simulated");
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
  ]

(* --- Cancellation: token to wire --------------------------------------- *)

let is_cancelled_result (r : Anafault.Outcome.fault_result) =
  match r.Anafault.Outcome.outcome with
  | Anafault.Outcome.Sim_failed (Anafault.Outcome.Cancelled _) -> true
  | _ -> false

(* A serial-path spec (batch = 1) so the cancel lands at a
   deterministic fault boundary. *)
let serial_spec =
  {
    spec with
    Campaign.options = { Campaign.default_options with Campaign.batch = 1 };
  }

let cancel_tests =
  [
    Alcotest.test_case "token: first reason wins; never is inert" `Quick
      (fun () ->
        let t = Cancel.create () in
        check_bool "fresh token is live" false (Cancel.cancelled t);
        Cancel.cancel t Cancel.User_cancel;
        Cancel.cancel t (Cancel.Deadline 5.0);
        check_bool "first reason wins" true
          (Cancel.get t = Some Cancel.User_cancel);
        check_bool "check raises the first reason" true
          (match Cancel.check t with
          | exception Cancel.Cancelled Cancel.User_cancel -> true
          | exception Cancel.Cancelled _ -> false
          | () -> false);
        Cancel.cancel Cancel.never Cancel.User_cancel;
        check_bool "never cannot be cancelled" false
          (Cancel.cancelled Cancel.never);
        check_string "reasons render" "deadline exceeded (5s)"
          (Cancel.reason_to_string (Cancel.Deadline 5.0)));
    Alcotest.test_case
      "a cancelled local campaign journals only completed faults; the \
       journal resumes the rest" `Slow (fun () ->
        let compiled = ok "compile" (Campaign.compile serial_spec) in
        let faults = Array.of_list compiled.Campaign.faults in
        let path = temp_path ".journal" in
        let token = Cancel.create () in
        let journal =
          ok "journal"
            (Journal.start ~path ~fingerprint:compiled.Campaign.fingerprint
               ~resume:false ~faults)
        in
        (* Fire the token the moment the first fault completes: the
           serial loop then stamps every remaining fault Cancelled
           without simulating it. *)
        let progress completed _total =
          if completed = 1 then Cancel.cancel token Cancel.User_cancel
        in
        let local =
          Campaign.run_local ~progress ~journal
            (Campaign.with_cancel compiled token)
        in
        Journal.close journal;
        let results = local.Campaign.result.Campaign.results in
        check_int "result stays total" 3 (List.length results);
        check_int "two faults cancelled, unsimulated" 2
          (List.length (List.filter is_cancelled_result results));
        (* The journal holds exactly the one completed fault... *)
        let journal2 =
          ok "resume journal"
            (Journal.start ~path ~fingerprint:compiled.Campaign.fingerprint
               ~resume:true ~faults)
        in
        check_int "journal holds only the completed fault" 1
          (Journal.restored_count journal2);
        (* ...and an uncancelled resume simulates only the other two. *)
        let local2 = Campaign.run_local ~journal:journal2 compiled in
        Journal.close journal2;
        let results2 = local2.Campaign.result.Campaign.results in
        check_int "nothing cancelled on resume" 0
          (List.length (List.filter is_cancelled_result results2));
        check_int "complete result" 3 (List.length results2);
        Sys.remove path);
    Alcotest.test_case
      "daemon: cancel a running job, salvage, exact resume on resubmit" `Slow
      (fun () ->
        Obs.Failpoint.reset ();
        Fun.protect ~finally:Obs.Failpoint.reset @@ fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          Anafaultd.Server.default_config ~socket_path
            ~work_dir:(Filename.concat dir "work")
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let compiled = ok "compile" (Campaign.compile serial_spec) in
        let fingerprint = compiled.Campaign.fingerprint in
        let faults = Array.of_list compiled.Campaign.faults in
        (* Pace the job so the cancel round-trip lands mid-campaign:
           every journal record sleeps before returning. *)
        Obs.Failpoint.arm "journal.record" (Obs.Failpoint.Delay 0.4);
        let fd = connect socket_path in
        let terminal =
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
          @@ fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          Protocol.send oc
            (Protocol.request_to_json
               (Protocol.Submit
                  { spec = serial_spec; client = None; deadline_s = None }));
          (* Wait for the first completed fault, then cancel from a
             second client. *)
          let rec until_progress () =
            match ok "recv" (Protocol.recv ic) with
            | None -> Alcotest.fail "stream ended before progress"
            | Some json -> begin
              match ok "event" (Campaign.event_of_json ~faults json) with
              | Campaign.Progress { completed; _ } when completed >= 1 -> ()
              | Campaign.Finished _ | Campaign.Failed _ | Campaign.Cancelled _
                ->
                Alcotest.fail "campaign ended before it could be cancelled"
              | _ -> until_progress ()
            end
          in
          until_progress ();
          (match one_shot socket_path (Protocol.Cancel { fingerprint }) with
          | J.Obj fields ->
            check_bool "cancel acknowledged" true
              (List.assoc_opt "cancelled" fields = Some (J.Bool true))
          | _ -> Alcotest.fail "cancel: expected an object");
          (* The stream must end with a typed Cancelled event. *)
          let rec last () =
            match ok "recv" (Protocol.recv ic) with
            | None -> Alcotest.fail "stream ended without a terminal event"
            | Some json -> begin
              match ok "event" (Campaign.event_of_json ~faults json) with
              | Campaign.Cancelled { fingerprint = fp; reason; salvaged } ->
                (fp, reason, salvaged)
              | Campaign.Finished _ | Campaign.Failed _ ->
                Alcotest.fail "expected a Cancelled terminal event"
              | _ -> last ()
            end
          in
          last ()
        in
        let fp, reason, salvaged = terminal in
        check_string "event names the job" fingerprint fp;
        check_bool "user reason" true (contains ~needle:"user" reason);
        check_bool "salvaged at least the completed fault" true (salvaged >= 1);
        check_bool "salvaged fewer than all" true (salvaged < 3);
        (* Cancelling a finished (or unknown) fingerprint is a no-op. *)
        (match one_shot socket_path (Protocol.Cancel { fingerprint }) with
        | J.Obj fields ->
          check_bool "no job to cancel" true
            (List.assoc_opt "cancelled" fields = Some (J.Bool false))
        | _ -> Alcotest.fail "cancel: expected an object");
        (* Resubmit un-paced: never served from the cache, and only the
           un-salvaged faults simulate (the campaign journal resumes). *)
        Obs.Failpoint.reset ();
        let events = submit_and_wait ~spec:serial_spec ~faults socket_path in
        check_bool "no cache hit after a cancel" true
          (not
             (List.exists
                (function Campaign.Cache_hit _ -> true | _ -> false)
                events));
        let result = finished_of events in
        check_int "complete result" 3 (List.length result.Campaign.results);
        check_int "nothing cancelled on resume" 0
          (List.length
             (List.filter is_cancelled_result result.Campaign.results));
        let stats = one_shot socket_path Protocol.Stats in
        check_int "one cancellation counted" 1 (stat_int stats "cancelled");
        check_int "each fault simulated exactly once across both runs" 3
          (stat_int stats "faults_simulated");
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
    Alcotest.test_case "daemon: deadline_s expires a running job" `Slow
      (fun () ->
        Obs.Failpoint.reset ();
        Fun.protect ~finally:Obs.Failpoint.reset @@ fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          {
            (Anafaultd.Server.default_config ~socket_path
               ~work_dir:(Filename.concat dir "work"))
            with
            (* The server cap is looser than the submit's own deadline:
               the tighter one must win. *)
            Anafaultd.Server.job_deadline = Some 30.0;
          }
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let faults =
          Array.of_list
            (ok "compile" (Campaign.compile serial_spec)).Campaign.faults
        in
        Obs.Failpoint.arm "journal.record" (Obs.Failpoint.Delay 0.4);
        let events =
          submit_and_wait ~spec:serial_spec ~deadline_s:0.5 ~faults socket_path
        in
        (match List.rev events with
        | Campaign.Cancelled { reason; _ } :: _ ->
          check_bool "deadline reason" true (contains ~needle:"deadline" reason)
        | _ -> Alcotest.fail "expected the stream to end with Cancelled");
        Obs.Failpoint.reset ();
        check_int "cancellation counted" 1
          (stat_int (one_shot socket_path Protocol.Stats) "cancelled");
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
    Alcotest.test_case "daemon: a vanished client's job is cancelled" `Slow
      (fun () ->
        Obs.Failpoint.reset ();
        Fun.protect ~finally:Obs.Failpoint.reset @@ fun () ->
        let dir = daemon_socket_dir () in
        let socket_path = Filename.concat dir "d.sock" in
        let cfg =
          {
            (Anafaultd.Server.default_config ~socket_path
               ~work_dir:(Filename.concat dir "work"))
            with
            Anafaultd.Server.grace = 0.5;
          }
        in
        let server = Thread.create (fun () -> Anafaultd.Server.run cfg) () in
        let faults =
          Array.of_list
            (ok "compile" (Campaign.compile serial_spec)).Campaign.faults
        in
        (* Paced so that the next broadcast notices the closed connection
           and the grace runs out before the campaign ends. *)
        Obs.Failpoint.arm "journal.record" (Obs.Failpoint.Delay 1.0);
        let fd = connect socket_path in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        Protocol.send oc
          (Protocol.request_to_json
             (Protocol.Submit
                { spec = serial_spec; client = None; deadline_s = None }));
        let rec until_progress () =
          match ok "recv" (Protocol.recv ic) with
          | None -> Alcotest.fail "stream ended before progress"
          | Some json -> begin
            match ok "event" (Campaign.event_of_json ~faults json) with
            | Campaign.Progress _ -> ()
            | Campaign.Finished _ | Campaign.Failed _ | Campaign.Cancelled _ ->
              Alcotest.fail "campaign ended before its client vanished"
            | _ -> until_progress ()
          end
        in
        until_progress ();
        Unix.close fd;
        poll "the orphaned job to be cancelled" (fun () ->
            stat_int (one_shot socket_path Protocol.Stats) "cancelled" = 1);
        (* Never cached: the resubmission completes the campaign. *)
        Obs.Failpoint.reset ();
        let events = submit_and_wait ~spec:serial_spec ~faults socket_path in
        check_bool "no cache hit after an orphan cancel" true
          (not
             (List.exists
                (function Campaign.Cache_hit _ -> true | _ -> false)
                events));
        let result = finished_of events in
        check_int "complete result" 3 (List.length result.Campaign.results);
        check_int "nothing cancelled on resubmission" 0
          (List.length
             (List.filter is_cancelled_result result.Campaign.results));
        ignore (one_shot socket_path Protocol.Shutdown);
        Thread.join server);
  ]

let suites =
  [
    ("campaign codecs", codec_tests);
    ("campaign fingerprint", fingerprint_tests);
    ("campaign compile", compile_tests);
    ("campaign validation", validation_tests);
    ("failure codec", failure_tests);
    ("failpoints", failpoint_tests);
    ("queue wal", wal_tests);
    ("result cache", cache_tests);
    ("protocol robustness", protocol_tests);
    ("cancellation", cancel_tests);
    ("anafaultd", daemon_tests);
  ]
