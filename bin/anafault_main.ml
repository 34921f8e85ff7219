(* anafault: automatic analogue fault simulation.

     dune exec bin/anafault_main.exe -- CIRCUIT.cir
         [--faults faults.flt | --universe] [--observe NODE]
         [--model source|resistor]
         [--tol-v V] [--tol-t S]
         [--domains N] [--batch N] [--limit N] [--csv FILE] [--plot]
         [--trace FILE.jsonl] [--metrics]
         [--journal FILE] [--resume] [--retries SPEC]
         [--budget-iters N] [--budget-steps N] [--budget-seconds S]
         [--remote SOCKET]

   The circuit must contain a .tran card; the fault list comes from lift
   (or --universe builds the complete schematic fault set).  --trace
   streams the run's telemetry (per-fault spans, per-domain scheduler
   stats, Newton/fallback counters) as JSON lines; --metrics prints the
   aggregated summary table.  --journal records every completed fault to
   a crash-safe JSONL file; --resume skips the faults an earlier
   (killed) run of the same campaign already journalled.  The --budget-*
   flags bound the work spent on each fault; --retries configures the
   escalation ladder tried when a fault's simulation fails to converge.

   --batch sets the chunk width: how many faults a domain steals at
   once, primes one sparse pattern for, and runs one after another.
   Every fault's run stops the moment it is detected, at every width,
   so the width never changes a result (0 = automatic).

   Remote mode: --remote SOCKET submits the campaign to a running
   anafaultd daemon instead of simulating in-process, streaming its
   progress events and rendering the same detection table the local
   path prints.  The client is resilient: lost connections, read
   timeouts (--remote-timeout) and queue-full rejections reconnect and
   resubmit with exponential backoff (--remote-retries,
   --remote-backoff); resubmission is idempotent by campaign
   fingerprint.  --client names the submitter for the daemon's quota.
   --remote-stats / --remote-shutdown query and stop the daemon.
   --spec FILE replaces CIRCUIT/--faults with a saved Campaign.spec
   JSON file.

   Cancellation: Ctrl-C during a --remote submission sends a cancel
   request for the accepted fingerprint before exiting, so the daemon
   stops simulating instead of finishing an orphaned job; --cancel FP
   (with --remote) cancels someone else's queued-or-running job by
   fingerprint; --deadline S attaches a wall-clock budget the daemon
   enforces from acceptance.  A cancelled campaign exits 3 - its
   journal keeps every completed fault, and resubmitting the identical
   campaign resumes exactly where the stop landed.

   Exit codes: 0 success; 1 usage errors, a failed nominal simulation,
   or a campaign in which every fault failed; 3 a campaign stopped by a
   cancellation (the journal keeps what completed); 4 one or more
   worker domains died (their claimed faults carry typed failures in
   the report). *)

module Campaign = Anafault.Campaign
module Protocol = Anafaultd.Protocol

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fail fmt = Format.kasprintf (fun msg -> Format.eprintf "error: %s@." msg; 1) fmt

(* --- Remote plumbing --------------------------------------------------- *)

(* How the client survives a flaky daemon: [retries] reconnections with
   exponential backoff from [backoff] seconds (jittered, capped), a
   per-read [timeout], and a [client] name for the daemon's quota
   accounting.  Resubmission is idempotent - the campaign fingerprint
   coalesces with a still-running job or hits the result cache. *)
type remote_opts = {
  retries : int;
  backoff : float;
  timeout : float; (* seconds; 0 = wait forever *)
  client : string option;
}

(* With SIGPIPE at its default, a daemon dying mid-stream kills the
   client; ignored, the write fails as an error we can retry on. *)
let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  with Invalid_argument _ -> ()

let backoff_delay opts attempt =
  let base = opts.backoff *. (2.0 ** float_of_int attempt) in
  Float.min base 2.0 *. (0.5 +. Random.float 0.5)

let connect ?(timeout = 0.0) socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    if timeout > 0.0 then Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
  with
  | () -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
    Unix.close fd;
    Error (Printf.sprintf "%s: %s" socket_path (Unix.error_message err))

let with_daemon ?timeout socket_path f =
  match connect ?timeout socket_path with
  | Error msg -> fail "%s" msg
  | Ok fd ->
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () -> f (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd)

(* One-shot requests (stats, shutdown): print the daemon's reply. *)
let remote_request ?timeout socket_path request =
  ignore_sigpipe ();
  with_daemon ?timeout socket_path @@ fun ic oc ->
  Protocol.send oc (Protocol.request_to_json request);
  match Protocol.recv ic with
  | Ok (Some json) ->
    print_endline (Obs.Json.to_string json);
    0
  | Ok None -> fail "daemon closed the connection without replying"
  | Error msg -> fail "%s" msg

let write_csv path results =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Anafault.Report.csv_of_results results));
  Format.eprintf "csv written to %s@." path

(* Exit-code contract shared by the local and remote paths: 1 when every
   fault of a non-empty campaign failed to simulate. *)
let code_of_results (results : Anafault.Outcome.fault_result list) =
  let failed =
    List.length
      (List.filter
         (fun (r : Anafault.Outcome.fault_result) ->
           match r.Anafault.Outcome.outcome with
           | Anafault.Outcome.Sim_failed _ -> true
           | Anafault.Outcome.Detected _ | Anafault.Outcome.Undetected -> false)
         results)
  in
  if results <> [] && failed = List.length results then begin
    Format.eprintf
      "error: every fault simulation failed (see the failure breakdown above)@.";
    1
  end
  else 0

(* Submit with retries.  One attempt is connect + submit + stream; a
   lost connection, read timeout or queue_full rejection reconnects and
   resubmits after a backoff - the fingerprint makes that idempotent
   (the daemon coalesces with the still-running job, or answers from
   the cache when it finished while we were away).  A quota_exceeded
   rejection or a typed campaign failure is terminal. *)
let run_remote opts socket_path (spec : Campaign.spec) csv_file deadline =
  ignore_sigpipe ();
  let faults = Array.of_list (Faults.Fault_list.of_string spec.Campaign.faults) in
  (* Ctrl-C sends a cancel for the accepted fingerprint on a fresh
     connection before exiting: the daemon stops simulating instead of
     finishing a job nobody is waiting for. *)
  let accepted = ref None in
  let cancel_and_exit _ =
    (match !accepted with
    | None -> ()
    | Some fp -> begin
      Format.eprintf "@.interrupted: cancelling %s@." fp;
      match connect socket_path with
      | Error _ -> ()
      | Ok fd ->
        let oc = Unix.out_channel_of_descr fd in
        (try
           Protocol.send oc
             (Protocol.request_to_json (Protocol.Cancel { fingerprint = fp }))
         with Sys_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
    end);
    exit 130
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle cancel_and_exit)
   with Invalid_argument _ -> ());
  let attempt () =
    match connect ~timeout:opts.timeout socket_path with
    | Error msg -> `Retry msg
    | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let rec stream () =
        match Protocol.recv ic with
        | Ok None -> `Retry "daemon closed the stream before the campaign finished"
        | Error msg -> `Done (fail "%s" msg)
        | Ok (Some json) -> begin
          match Protocol.rejected_of_json json with
          | Error msg -> `Done (fail "%s" msg)
          | Ok (Some (Protocol.Queue_full, msg)) -> `Retry ("rejected: " ^ msg)
          | Ok (Some (Protocol.Quota_exceeded, msg)) ->
            `Done (fail "rejected: %s" msg)
          | Ok None -> begin
            match Campaign.event_of_json ~faults json with
            | Error msg -> `Done (fail "%s" msg)
            | Ok (Campaign.Accepted { fingerprint; total }) ->
              accepted := Some fingerprint;
              Format.printf "accepted as %s (%d faults)@." fingerprint total;
              stream ()
            | Ok (Campaign.Progress { completed; total }) ->
              Format.eprintf "progress: %d/%d@." completed total;
              stream ()
            | Ok (Campaign.Cache_hit _) ->
              Format.printf "served from the result cache (no simulation run)@.";
              stream ()
            | Ok (Campaign.Cancelled { fingerprint; reason; salvaged }) ->
              Format.eprintf
                "campaign %s cancelled (%s): %d results salvaged in the \
                 daemon's journal; resubmit to resume@."
                fingerprint reason salvaged;
              `Done 3
            | Ok (Campaign.Failed { message }) -> `Done (fail "%s" message)
            | Ok (Campaign.Finished result) ->
              Format.printf "%a@." Anafault.Report.pp_results
                result.Campaign.results;
              let detected, undetected, failed = Campaign.tally result in
              Format.printf "@.%d detected, %d undetected, %d failed%s@."
                detected undetected failed
                (if result.Campaign.cached then " (cached)" else "");
              Option.iter
                (fun path -> write_csv path result.Campaign.results)
                csv_file;
              `Done (code_of_results result.Campaign.results)
          end
        end
      in
      (match
         Protocol.send oc
           (Protocol.request_to_json
              (Protocol.Submit
                 { spec; client = opts.client; deadline_s = deadline }));
         stream ()
       with
      | verdict -> verdict
      | exception Sys_error msg -> `Retry msg (* timeout, EPIPE, reset *)
      | exception End_of_file -> `Retry "connection lost")
  in
  let rec go tries =
    match attempt () with
    | `Done code -> code
    | `Retry msg ->
      if tries >= opts.retries then
        fail "%s (gave up after %d attempts)" msg (tries + 1)
      else begin
        let delay = backoff_delay opts tries in
        Format.eprintf "remote: %s; retrying in %.2fs (%d/%d)@." msg delay
          (tries + 1) opts.retries;
        Unix.sleepf delay;
        go (tries + 1)
      end
  in
  go 0

(* --- Local execution --------------------------------------------------- *)

let run_local spec observe_spec trace metrics plot csv_file journal_path resume =
  let obs = if trace <> None || metrics then Obs.memory () else Obs.null in
  match Campaign.compile ~obs spec with
  | Error msg -> fail "%s" msg
  | Ok compiled -> begin
    let faults = compiled.Campaign.faults in
    let journal =
      match journal_path with
      | None ->
        if resume then begin
          Format.eprintf "error: --resume requires --journal FILE@.";
          exit 1
        end;
        None
      | Some path -> begin
        match
          Anafault.Journal.start ~path
            ~fingerprint:compiled.Campaign.fingerprint ~resume
            ~faults:(Array.of_list faults)
        with
        | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit 1
        | Ok j ->
          if resume then
            Format.printf "resuming: %d of %d faults already journalled@."
              (Anafault.Journal.restored_count j)
              (Anafault.Journal.total j);
          Some j
      end
    in
    Format.printf "observing %s, %d faults, %s model@." compiled.Campaign.observed
      (List.length faults)
      (match observe_spec with
      | `Model name -> name
      | `Spec -> "spec-configured");
    match Campaign.run_local ?journal compiled with
    | exception Sim.Engine.Sim_error (err, detail) ->
      Option.iter Anafault.Journal.close journal;
      Format.eprintf "error: nominal simulation failed (%s): %s@."
        (Sim.Engine.error_to_string err) detail;
      1
    | { Campaign.run = run_result; domain_stats; _ } ->
      Option.iter Anafault.Journal.close journal;
      Format.printf "%a@.@.%a@." Anafault.Report.pp_table run_result
        Anafault.Report.pp_summary run_result;
      Format.printf "@.%a@." Anafault.Report.pp_domains domain_stats;
      if plot then print_string (Anafault.Report.coverage_plot run_result);
      Option.iter
        (fun path -> write_csv path run_result.Anafault.Simulate.results)
        csv_file;
      let events = Obs.drain obs in
      Option.iter
        (fun path ->
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
              Obs.Jsonl.write oc events);
          Format.eprintf "trace written to %s (%d events)@." path
            (List.length events))
        trace;
      if metrics then
        Format.printf "@.telemetry summary@.%a@." Obs.Summary.pp
          (Obs.Summary.of_events events);
      let died =
        List.filter (fun d -> d.Anafault.Parsim.died) domain_stats
      in
      if died <> [] then begin
        Format.eprintf
          "error: %d worker domain(s) died; their claimed faults carry typed \
           failures (see the report above)@."
          (List.length died);
        4
      end
      else code_of_results run_result.Anafault.Simulate.results
  end

(* --- Spec assembly ----------------------------------------------------- *)

(* A malformed fault list gets the report a malformed deck gets. *)
let faults_or_exit source parse =
  match parse () with
  | faults -> faults
  | exception Faults.Fault_list.Parse_error (line, msg) ->
    Format.eprintf "error: %s line %d: %s@." source line msg;
    exit 1

(* The CLI's flags collapse into a Campaign.spec: the deck and fault
   list travel as text, so the same value can run locally, go over the
   wire, or be saved and re-run via --spec. *)
let spec_of_cli input fault_file universe observe model_name tol_v tol_t
    domains batch limit retries_spec budget_iters budget_steps
    budget_seconds =
  let deck = read_file input in
  let faults =
    match (fault_file, universe) with
    | Some path, _ -> faults_or_exit path (fun () -> Faults.Fault_list.load path)
    | None, true -> begin
      (* The same report Campaign.compile gives a malformed deck. *)
      match Netlist.Parser.parse deck with
      | parsed -> Faults.Universe.build parsed.Netlist.Parser.circuit
      | exception Netlist.Parser.Parse_error (line, msg) ->
        Format.eprintf "error: deck line %d: %s@." line msg;
        exit 1
    end
    | None, false ->
      Format.eprintf "error: need --faults FILE or --universe@.";
      exit 1
  in
  let faults =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) faults
    | None -> faults
  in
  match
    Campaign.options_of_cli ~model:model_name ~tol_v ~tol_t
      ~retries:retries_spec ~domains ~batch ?budget_iters ?budget_steps
      ?budget_seconds ()
  with
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 1
  | Ok options ->
    {
      Campaign.deck;
      observed = observe;
      faults = Faults.Fault_list.to_string faults;
      options;
    }

let load_spec path =
  match Obs.Json.of_string (read_file path) with
  | Error msg ->
    Format.eprintf "error: %s: %s@." path msg;
    exit 1
  | Ok json -> begin
    match Campaign.spec_of_json json with
    | Error msg ->
      Format.eprintf "error: %s: %s@." path msg;
      exit 1
    | Ok spec ->
      (* Checked here so the remote path, which decodes results against
         the fault list, refuses it as the local compile does. *)
      ignore
        (faults_or_exit (path ^ ": fault list") (fun () ->
             Faults.Fault_list.of_string spec.Campaign.faults));
      spec
  end

let run input fault_file universe observe model_name tol_v tol_t
    domains batch limit csv_file plot trace metrics journal_path resume
    retries_spec budget_iters budget_steps budget_seconds remote
    remote_retries remote_backoff remote_timeout client_name remote_stats
    remote_shutdown spec_file deadline cancel_fp =
  (match Obs.Failpoint.load_env () with
  | Ok () -> ()
  | Error msg -> Format.eprintf "warning: failpoints: %s@." msg);
  Random.self_init ();
  let remote_opts =
    {
      retries = remote_retries;
      backoff = remote_backoff;
      timeout = remote_timeout;
      client = client_name;
    }
  in
  let timeout = if remote_timeout > 0.0 then Some remote_timeout else None in
  match (remote_stats, remote_shutdown, cancel_fp) with
  | Some socket, _, _ -> remote_request ?timeout socket Protocol.Stats
  | None, Some socket, _ -> remote_request ?timeout socket Protocol.Shutdown
  | None, None, Some fingerprint -> begin
    match remote with
    | None -> fail "--cancel requires --remote SOCKET"
    | Some socket ->
      remote_request ?timeout socket (Protocol.Cancel { fingerprint })
  end
  | None, None, None -> begin
    let spec =
      match (spec_file, input) with
      | Some path, _ -> Some (load_spec path)
      | None, Some input ->
        Some
          (spec_of_cli input fault_file universe observe model_name tol_v
             tol_t domains batch limit retries_spec budget_iters
             budget_steps budget_seconds)
      | None, None -> None
    in
    match spec with
    | None -> fail "need a CIRCUIT argument or --spec FILE"
    | Some spec -> begin
      match remote with
      | Some socket -> run_remote remote_opts socket spec csv_file deadline
      | None ->
        let observe_spec =
          if spec_file <> None then `Spec else `Model model_name
        in
        run_local spec observe_spec trace metrics plot csv_file journal_path
          resume
    end
  end

open Cmdliner

let input =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"CIRCUIT" ~doc:"SPICE netlist with a .tran card (omit with --spec).")

let fault_file =
  Arg.(value & opt (some file) None & info [ "faults" ] ~docv:"FILE" ~doc:"Fault list produced by lift.")

let universe =
  Arg.(value & flag & info [ "universe" ] ~doc:"Simulate the complete schematic fault universe.")

let observe =
  Arg.(value & opt (some string) None & info [ "observe" ] ~docv:"NODE" ~doc:"Observed output node.")

let model_name =
  Arg.(value & opt string "source" & info [ "model" ] ~docv:"MODEL" ~doc:"Fault model: source or resistor.")

let tol_v =
  Arg.(value & opt float Anafault.Detect.paper_tolerance.Anafault.Detect.tol_v
       & info [ "tol-v" ] ~docv:"V" ~doc:"Amplitude tolerance in volts.")

let tol_t =
  Arg.(value & opt float Anafault.Detect.paper_tolerance.Anafault.Detect.tol_t
       & info [ "tol-t" ] ~docv:"S" ~doc:"Time tolerance in seconds.")

let domains =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Run fault simulations on $(docv) domains.")

let batch =
  Arg.(value & opt int 0
       & info [ "batch" ] ~docv:"N"
           ~doc:"Chunk width: simulate faults $(docv) at a time on one \
                 primed sparse pattern.  Each transient stops the moment its \
                 fault is detected, at every width, so the width changes no \
                 result.  0 (default) picks a width automatically.")

let limit =
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc:"Simulate only the first $(docv) faults of the list.")

let csv_file =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-fault results as CSV.")

let plot = Arg.(value & flag & info [ "plot" ] ~doc:"Print the coverage-versus-time plot.")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write the telemetry stream as JSON lines to $(docv).")

let metrics =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print the aggregated telemetry summary table.")

let journal_path =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Record every completed fault to the crash-safe JSONL journal $(docv).")

let resume =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Skip the faults an earlier run of the same campaign already \
                 journalled (requires --journal; the journal must match the \
                 campaign fingerprint).")

let retries_spec =
  Arg.(value & opt string "swap-model"
       & info [ "retries" ] ~docv:"SPEC"
           ~doc:"Comma-separated escalation ladder tried when a fault fails to \
                 converge: swap-model, cut-tstep[=F], raise-gmin[=F], \
                 relax-reltol[=F], or none.")

let budget_iters =
  Arg.(value & opt (some int) None
       & info [ "budget-iters" ] ~docv:"N"
           ~doc:"Per-fault cumulative Newton-iteration budget.")

let budget_steps =
  Arg.(value & opt (some int) None
       & info [ "budget-steps" ] ~docv:"N"
           ~doc:"Per-fault transient-step budget (accepted + rejected).")

let budget_seconds =
  Arg.(value & opt (some float) None
       & info [ "budget-seconds" ] ~docv:"S"
           ~doc:"Per-fault wall-clock deadline in seconds.")

let remote =
  Arg.(value & opt (some string) None
       & info [ "remote" ] ~docv:"SOCKET"
           ~doc:"Submit the campaign to the anafaultd daemon listening on \
                 $(docv) instead of simulating in-process; repeat \
                 submissions are answered from its result cache.")

let remote_retries =
  Arg.(value & opt int 5
       & info [ "remote-retries" ] ~docv:"N"
           ~doc:"Reconnect and resubmit up to $(docv) times when the daemon \
                 connection fails, times out, or the queue is full; \
                 resubmission is idempotent (same campaign fingerprint).")

let remote_backoff =
  Arg.(value & opt float 0.2
       & info [ "remote-backoff" ] ~docv:"S"
           ~doc:"Base retry delay in seconds; doubles per attempt (jittered, \
                 capped at 2s).")

let remote_timeout =
  Arg.(value & opt float 0.0
       & info [ "remote-timeout" ] ~docv:"S"
           ~doc:"Per-read socket timeout in seconds for remote requests; a \
                 silent daemon counts as a failed attempt.  0 = wait forever.")

let client_name =
  Arg.(value & opt (some string) None
       & info [ "client" ] ~docv:"NAME"
           ~doc:"Client name for the daemon's per-client submission quota; \
                 unnamed clients share the anonymous bucket.")

let remote_stats =
  Arg.(value & opt (some string) None
       & info [ "remote-stats" ] ~docv:"SOCKET"
           ~doc:"Print the daemon's lifetime counters (jobs, cache hits, \
                 coalesced submissions, faults simulated) and exit.")

let remote_shutdown =
  Arg.(value & opt (some string) None
       & info [ "remote-shutdown" ] ~docv:"SOCKET"
           ~doc:"Ask the daemon to finish its queue and exit.")

let spec_file =
  Arg.(value & opt (some file) None
       & info [ "spec" ] ~docv:"FILE"
           ~doc:"Load the campaign from a Campaign.spec JSON file instead of \
                 CIRCUIT/--faults; the file's options override the option \
                 flags.")

let deadline =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"S"
           ~doc:"Wall-clock budget in seconds for a --remote submission, \
                 enforced by the daemon from acceptance (it may cap it \
                 further with its --job-deadline); an expired deadline \
                 cancels the job, salvaging every completed fault.")

let cancel_fp =
  Arg.(value & opt (some string) None
       & info [ "cancel" ] ~docv:"FINGERPRINT"
           ~doc:"Cancel the daemon's queued-or-running job with this campaign \
                 fingerprint (requires --remote SOCKET) and exit; prints the \
                 daemon's acknowledgement.")

let cmd =
  let doc = "automatic analogue fault simulation (AnaFAULT)" in
  Cmd.v
    (Cmd.info "anafault" ~doc)
    Term.(
      const run $ input $ fault_file $ universe $ observe $ model_name
      $ tol_v $ tol_t $ domains $ batch $ limit $ csv_file $ plot
      $ trace $ metrics $ journal_path $ resume $ retries_spec $ budget_iters
      $ budget_steps $ budget_seconds $ remote $ remote_retries
      $ remote_backoff $ remote_timeout $ client_name $ remote_stats
      $ remote_shutdown $ spec_file $ deadline $ cancel_fp)

let () = exit (Cmd.eval' cmd)
