type config = {
  model : Faults.Inject.model;
  tran : Netlist.Parser.tran;
  observed : string;
  tolerance : Detect.tolerance;
  sim_options : Sim.Engine.options;
  retries : Outcome.strategy list;
  samples : int;
  domains : int;
  batch : int;  (* lock-step batch width; 0 = auto *)
  obs : Obs.sink;
}

(* Resolve the lock-step batch width.  Explicit [batch] wins; the auto
   rule keeps at least four batches per domain in flight so work
   stealing still balances, and clamps at 16 where the crossover
   experiment shows the shared-pattern benefit saturating.  Small
   campaigns resolve to width 1 - the exact serial path. *)
let effective_batch config ~total =
  if config.batch > 0 then config.batch
  else max 1 (min 16 (total / (max 1 config.domains * 4)))

(* SPICE habit: the last non-ground node of the deck is the output. *)
let default_observed circuit =
  match List.rev (Netlist.Circuit.nodes circuit) with
  | n :: _ when n <> "0" -> n
  | _ -> "0"

type failure = Outcome.failure =
  | Dc_no_convergence of string
  | Tran_step_underflow of string
  | Singular_matrix of string
  | Bad_injection of string
  | Budget_exceeded of string
  | Cancelled of string
  | Crashed of string

type outcome = Outcome.outcome =
  | Detected of float
  | Undetected
  | Sim_failed of failure

type attempt = Outcome.attempt = {
  strategy : Outcome.strategy;
  failure : failure option;
}

type fault_result = Outcome.fault_result = {
  fault : Faults.Fault.t;
  outcome : outcome;
  attempts : attempt list;
  stats : Sim.Engine.stats;
  cpu_seconds : float;
}

let failure_to_string = Outcome.failure_to_string

type run = {
  config : config;
  nominal : Sim.Waveform.t;
  nominal_stats : Sim.Engine.stats;
  results : fault_result list;
  wall_seconds : float;
  cpu_seconds : float;
}

(* The work budget in [sim_options] is a per-fault limit: the nominal
   run is the reference every comparison needs, so it always runs
   unbudgeted. *)
let nominal_options config =
  { config.sim_options with Sim.Engine.budget = Sim.Engine.unlimited }

let simulate_with ~options config circuit =
  let { Netlist.Parser.tstep; tstop; uic } = config.tran in
  let result =
    Sim.Engine.run ~options ~obs:config.obs circuit
      (Sim.Engine.Analysis.Tran { tstep; tstop; uic })
  in
  ( Sim.Waveform.resample (Sim.Engine.Analysis.waveform result) ~n:config.samples,
    Sim.Engine.Analysis.stats result )

let simulate config circuit = simulate_with ~options:config.sim_options config circuit

let simulate_session ?options config session =
  let { Netlist.Parser.tstep; tstop; uic } = config.tran in
  let wf, stats =
    Sim.Engine.Session.transient ?options session ~tstep ~tstop ~uic
  in
  (Sim.Waveform.resample wf ~n:config.samples, stats)

let nominal config circuit =
  Obs.span config.obs "anafault.nominal" (fun _ ->
      simulate_with ~options:(nominal_options config) config circuit)

let session config circuit =
  Sim.Engine.Session.create ~options:config.sim_options ~obs:config.obs circuit

let zero_stats =
  { Sim.Engine.newton_iterations = 0; accepted_steps = 0; rejected_steps = 0 }

(* Degenerate comparison inputs become a typed per-fault failure; a
   missing observed signal still raises [Not_found], which the ladder
   classifies as a bad injection (matching the historical behaviour). *)
let detect_outcome config ~nominal ~faulty =
  match
    Detect.analyse ~tolerance:config.tolerance ~signal:config.observed
      ~nominal ~faulty
  with
  | Ok (Some t) -> Detected t
  | Ok None -> Undetected
  | Error msg -> Sim_failed (Crashed ("detect: " ^ msg))

(* --- The retry ladder ------------------------------------------------- *)

let swap_model = function
  | Faults.Inject.Source -> Faults.Inject.default_resistor
  | Faults.Inject.Resistor _ -> Faults.Inject.Source

(* Each strategy is an independent perturbation of the baseline config,
   not a cumulative one: escalation order is the caller's policy, and
   independent rungs keep "which strategy won" meaningful. *)
let apply_strategy config (s : Outcome.strategy) =
  match s with
  | Outcome.Baseline -> config
  | Outcome.Swap_model -> { config with model = swap_model config.model }
  | Outcome.Cut_tstep f ->
    let tran = { config.tran with Netlist.Parser.tstep = config.tran.Netlist.Parser.tstep *. f } in
    { config with tran }
  | Outcome.Raise_gmin f ->
    let sim_options =
      { config.sim_options with Sim.Engine.gmin = config.sim_options.Sim.Engine.gmin *. f }
    in
    { config with sim_options }
  | Outcome.Relax_reltol f ->
    let sim_options =
      { config.sim_options with Sim.Engine.reltol = config.sim_options.Sim.Engine.reltol *. f }
    in
    { config with sim_options }

let classify_exn = function
  | Not_found ->
    Some (Outcome.Bad_injection "fault references unknown device/terminal")
  | Sim.Engine.Sim_error (err, detail) -> Some (Outcome.of_engine_error err detail)
  | _ -> None

(* Walk [Baseline :: config.retries]: the first attempt that simulates
   wins; a retryable kernel failure escalates to the next rung; anything
   else (bad injection, budget trip) stops the ladder.  Every rung is
   recorded, so a report can show the original failure even when a retry
   succeeded - or both messages when both failed.  [attempt cfg] returns
   [(outcome, stats)] and may raise; exceptions the taxonomy does not
   cover (e.g. [Patch_overflow]) propagate to the caller's handlers. *)
let run_ladder config ~sp ~finish attempt =
  let note (s : Outcome.strategy) =
    if s <> Outcome.Baseline then begin
      Obs.count config.obs "anafault.retry" 1;
      if s = Outcome.Swap_model then begin
        Obs.set sp "model_fallback" (Obs.Bool true);
        Obs.count config.obs "anafault.model_fallback" 1
      end
    end
  in
  let rec go acc = function
    | [] -> assert false (* the list always starts with Baseline *)
    | s :: rest -> begin
      note s;
      let cfg = apply_strategy config s in
      match attempt cfg with
      | outcome, stats ->
        let attempts = List.rev ({ strategy = s; failure = None } :: acc) in
        finish ~attempts outcome stats
      | exception exn -> begin
        match classify_exn exn with
        | None -> raise exn
        | Some failure ->
          let acc = { strategy = s; failure = Some failure } :: acc in
          if Outcome.retryable failure && rest <> [] then go acc rest
          else finish ~attempts:(List.rev acc) (Sim_failed failure) zero_stats
      end
    end
  in
  go [] (Outcome.Baseline :: config.retries)

(* One span per fault, tagged with its outcome, failure class, attempt
   count and winning strategy; the attribute strings are only built when
   the sink is live. *)
let fault_span config fault f =
  Obs.span config.obs "anafault.fault" (fun sp ->
      if Obs.enabled config.obs then
        Obs.set sp "fault" (Obs.Str (Faults.Fault.to_string fault));
      let result = f sp in
      if Obs.enabled config.obs then begin
        (match result.outcome with
        | Detected t ->
          Obs.set sp "outcome" (Obs.Str "detected");
          Obs.set sp "t_detect" (Obs.Float t)
        | Undetected -> Obs.set sp "outcome" (Obs.Str "undetected")
        | Sim_failed failure ->
          Obs.set sp "outcome" (Obs.Str "failed");
          Obs.set sp "failure" (Obs.Str (Outcome.failure_kind failure));
          Obs.set sp "reason" (Obs.Str (Outcome.failure_to_string failure)));
        if result.attempts <> [] then begin
          Obs.set sp "attempts" (Obs.Int (List.length result.attempts));
          match List.find_opt (fun a -> a.failure = None) result.attempts with
          | Some a ->
            Obs.set sp "strategy" (Obs.Str (Outcome.strategy_to_string a.strategy))
          | None -> ()
        end;
        Obs.set sp "newton_iterations" (Obs.Int result.stats.Sim.Engine.newton_iterations)
      end;
      result)

(* The per-fault cycle: inject, simulate, compare, through the retry
   ladder.  Each attempt patches the session with the injected devices
   and simulates in the shared buffers; an injection that rewrites more
   than the overlay holds pays a full rebuild instead, and the fault
   stays on the rebuild path for its remaining rungs. *)
let run_one_in config sess ~nominal fault =
  fault_span config fault (fun sp ->
      let t0 = Sys.time () in
      let finish ~attempts outcome stats =
        { fault; outcome; attempts; stats; cpu_seconds = Sys.time () -. t0 }
      in
      let base = Sim.Engine.Session.circuit sess in
      let rebuilt = ref false in
      let rebuild cfg faulty_circuit =
        if not !rebuilt then begin
          rebuilt := true;
          Obs.set sp "path" (Obs.Str "rebuild");
          Obs.count config.obs "session.rebuild" 1
        end;
        simulate cfg faulty_circuit
      in
      let attempt cfg =
        let faulty_circuit = Faults.Inject.apply ~model:cfg.model base fault in
        let faulty, stats =
          if !rebuilt then rebuild cfg faulty_circuit
          else
            match
              Sim.Engine.Session.with_patch sess faulty_circuit (fun s ->
                  simulate_session ~options:cfg.sim_options cfg s)
            with
            | simulated -> simulated
            | exception Sim.Engine.Patch_overflow _ -> rebuild cfg faulty_circuit
        in
        (detect_outcome config ~nominal ~faulty, stats)
      in
      Obs.set sp "path" (Obs.Str "session");
      run_ladder config ~sp ~finish attempt)

let guard fault thunk =
  match thunk () with
  | result -> result
  | exception exn ->
    {
      fault;
      outcome = Sim_failed (Crashed (Printexc.to_string exn));
      attempts = [];
      stats = zero_stats;
      cpu_seconds = 0.0;
    }

(* --- The lock-step batched cycle --------------------------------------- *)

(* [run_batch config sess ~nominal faults] simulates the whole list in
   one lock-step batch on [sess]: every variant is patched into the
   session, the sparse pattern is primed once, and all variants advance
   together through the nominal grid.  An {!Detect.Incremental} detector
   per variant retires ("drops") a fault the moment its verdict is
   final, so a hard fault pays only the prefix of the transient it needs
   to be detected.  Variants that run to tstop are post-processed with
   exactly the serial path's resample + compare, so their recorded
   outcomes are bit-identical to [run_one_in]'s; dropped variants read
   the observed signal straight off the accepted samples (one
   interpolation instead of the serial path's resample-then-interpolate
   two), which agrees to rounding error and quantizes to the same grid
   instant.  Any variant the batch cannot carry - patch overflow, its
   own solve failing (the retry ladder may still rescue it), an
   injection error - falls back to the serial per-fault path on the same
   session, preserving the ladder and outcome taxonomy exactly.
   Results come back in input order. *)
let run_batch config sess ~nominal faults =
  let fallback fault = guard fault (fun () -> run_one_in config sess ~nominal fault) in
  let batch_core faults =
    let base = Sim.Engine.Session.circuit sess in
    let grid = Sim.Waveform.times nominal in
    match Sim.Waveform.samples nominal config.observed with
    | exception Not_found -> List.map fallback faults
    | nom -> begin
      let items = Array.of_list faults in
      let n_items = Array.length items in
      let results : fault_result option array = Array.make n_items None in
      (* Injection happens up front; a fault that cannot be injected (or
         whose detector cannot be built) takes the serial path, which
         reproduces the ladder's classification verbatim. *)
      let variant_idx = ref [] in
      let circuits = ref [] in
      let detectors = ref [] in
      Array.iteri
        (fun i fault ->
          match Faults.Inject.apply ~model:config.model base fault with
          | exception Not_found -> results.(i) <- Some (fallback fault)
          | circuit -> begin
            match
              Detect.Incremental.create ~tolerance:config.tolerance
                ~times:grid ~nom
            with
            | Error _ -> results.(i) <- Some (fallback fault)
            | Ok det ->
              variant_idx := i :: !variant_idx;
              circuits := circuit :: !circuits;
              detectors := det :: !detectors
          end)
        items;
      let variant_idx = Array.of_list (List.rev !variant_idx) in
      let variants = Array.of_list (List.rev !circuits) in
      let dets = Array.of_list (List.rev !detectors) in
      let drop_at = Array.make (Array.length variants) (-1) in
      (* The incremental detector's threshold comparisons are silently
         false on NaN, so a diverged variant could walk the whole grid
         and tabulate as undetected.  A non-finite sample retires the
         variant to the serial path, whose [Detect.analyse] reports the
         poison as a typed failure. *)
      let non_finite = Array.make (Array.length variants) false in
      let probe ~variant ~grid_index:_ ~value =
        if not (Float.is_finite value) then begin
          non_finite.(variant) <- true;
          `Drop
        end
        else begin
          match Detect.Incremental.feed dets.(variant) value with
          | Detect.Incremental.Pending | Detect.Incremental.Clear -> `Continue
          | Detect.Incremental.Detected i ->
            drop_at.(variant) <- i;
            `Drop
        end
      in
      (if Array.length variants > 0 then begin
         let { Netlist.Parser.tstep; tstop; uic } = config.tran in
         let bres =
           Sim.Engine.Session.transient_batch ~options:config.sim_options sess
             ~variants ~observe:config.observed ~grid ~tstep ~tstop ~uic ~probe
         in
         Array.iteri
           (fun v { Sim.Engine.Session.outcome; seconds } ->
             let i = variant_idx.(v) in
             let fault = items.(i) in
             let settle outcome stats =
               fault_span config fault (fun sp ->
                   Obs.set sp "path" (Obs.Str "batch");
                   {
                     fault;
                     outcome;
                     attempts =
                       [ { strategy = Outcome.Baseline; failure = None } ];
                     stats;
                     cpu_seconds = seconds;
                   })
             in
             match outcome with
             | Sim.Engine.Session.Batch_finished (wf, stats) ->
               let faulty = Sim.Waveform.resample wf ~n:config.samples in
               results.(i) <- Some (settle (detect_outcome config ~nominal ~faulty) stats)
             | Sim.Engine.Session.Batch_dropped { stats; _ } ->
               if non_finite.(v) then
                 (* Dropped for poison, not detection: the serial rerun
                    classifies it (Detect.analyse's finiteness guard). *)
                 results.(i) <- Some (fallback fault)
               else begin
                 Obs.count config.obs "batch.drops" 1;
                 results.(i) <- Some (settle (Detected grid.(drop_at.(v))) stats)
               end
             | Sim.Engine.Session.Batch_failed _
             | Sim.Engine.Session.Batch_overflow _ ->
               results.(i) <- Some (fallback fault))
           bres
       end);
      Array.to_list
        (Array.mapi
           (fun i r ->
             match r with Some r -> r | None -> fallback items.(i))
           results)
    end
  in
  match faults with
  | [] -> []
  | [ fault ] -> [ fallback fault ]
  | faults -> begin
    (* A failure of the batch machinery itself must not take the whole
       chunk down: retire to the per-fault serial path. *)
    match batch_core faults with
    | results -> results
    | exception _ ->
      Obs.count config.obs "batch.fallback" 1;
      List.map fallback faults
  end

(* --- Campaign fingerprint --------------------------------------------- *)

let model_signature = function
  | Faults.Inject.Source -> "source"
  | Faults.Inject.Resistor { r_short; r_open } ->
    Printf.sprintf "resistor(%.17g,%.17g)" r_short r_open

let options_signature (o : Sim.Engine.options) =
  let b = o.Sim.Engine.budget in
  let opt f = function None -> "-" | Some v -> f v in
  Printf.sprintf
    "gmin=%.17g;reltol=%.17g;abstol=%.17g;max_iter=%d;tran_max_iter=%d;dv_limit=%.17g;cmin=%.17g;integration=%s;budget=%s/%s/%s"
    o.Sim.Engine.gmin o.Sim.Engine.reltol o.Sim.Engine.abstol
    o.Sim.Engine.max_iter Sim.Engine.tran_max_iter o.Sim.Engine.dv_limit
    o.Sim.Engine.cmin
    (match o.Sim.Engine.integration with
    | Sim.Engine.Backward_euler -> "be"
    | Sim.Engine.Trapezoidal -> "trap")
    (opt string_of_int b.Sim.Engine.max_newton_iterations)
    (opt string_of_int b.Sim.Engine.max_steps)
    (opt (Printf.sprintf "%.17g") b.Sim.Engine.deadline_seconds)

(* Everything that can change a per-fault result is hashed; the domain
   count and the telemetry sink deliberately are not (results are
   schedule-independent), so a journal written serially resumes under
   any parallel width. *)
let fingerprint config circuit faults =
  let deck = Netlist.Printer.deck_to_string ~tran:config.tran circuit in
  let cfg =
    Printf.sprintf
      "model=%s;tran=%.17g/%.17g/%b;observed=%s;tol=%.17g/%.17g;samples=%d;opts=%s;retries=%s"
      (model_signature config.model) config.tran.Netlist.Parser.tstep
      config.tran.Netlist.Parser.tstop config.tran.Netlist.Parser.uic
      config.observed config.tolerance.Detect.tol_v config.tolerance.Detect.tol_t
      config.samples
      (options_signature config.sim_options)
      (String.concat "," (List.map Outcome.strategy_to_string config.retries))
  in
  Journal.fingerprint [ deck; cfg; Faults.Fault_list.to_string faults ]

let tally run =
  List.fold_left
    (fun (d, u, f) r ->
      match r.outcome with
      | Detected _ -> (d + 1, u, f)
      | Undetected -> (d, u + 1, f)
      | Sim_failed _ -> (d, u, f + 1))
    (0, 0, 0) run.results

let failure_tally run =
  List.fold_left
    (fun acc r ->
      match r.outcome with
      | Detected _ | Undetected -> acc
      | Sim_failed failure ->
        let k = Outcome.failure_kind failure in
        let n = Option.value ~default:0 (List.assoc_opt k acc) in
        (k, n + 1) :: List.remove_assoc k acc)
    [] run.results
  |> List.sort compare
