type config = {
  model : Faults.Inject.model;
  tran : Netlist.Parser.tran;
  observed : string;
  tolerance : Detect.tolerance;
  sim_options : Sim.Engine.options;
  retries : Outcome.strategy list;
  samples : int;
  domains : int;
  batch : int;  (* chunk width; 0 = auto *)
  obs : Obs.sink;
}

(* Resolve the chunk width.  Explicit [batch] wins; the auto rule keeps
   at least four chunks per domain in flight so work stealing still
   balances, and clamps at 16, which bounds the patches a chunk compiles
   before its first solve.  No measurement in this tree re-derives the
   16: past a few faults a wider chunk only spreads one symbolic
   analysis thinner.  Small campaigns resolve to width 1 - the serial
   reference. *)
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

let nominal config circuit =
  Obs.span config.obs "anafault.nominal" (fun _ ->
      let { Netlist.Parser.tstep; tstop; uic } = config.tran in
      let result =
        Sim.Engine.run ~options:(nominal_options config) ~obs:config.obs circuit
          (Sim.Engine.Analysis.Tran { tstep; tstop; uic })
      in
      ( Sim.Waveform.resample (Sim.Engine.Analysis.waveform result) ~n:config.samples,
        Sim.Engine.Analysis.stats result ))

let session config circuit =
  Sim.Engine.Session.create ~options:config.sim_options ~obs:config.obs circuit

let zero_stats =
  { Sim.Engine.newton_iterations = 0; accepted_steps = 0; rejected_steps = 0 }

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
   cover propagate to the caller's {!guard}. *)
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

(* --- The fault cycle ---------------------------------------------------- *)

let compile sess delta =
  match Sim.Engine.Session.patch sess delta with
  | patch -> Some patch
  | exception Sim.Engine.Patch_overflow _ -> None

(* --- The in-run detector -------------------------------------------------- *)

(* A fresh detector on the nominal grid, fed the attempt's observed value
   as the run passes each grid time; its verdict is the attempt's outcome.
   Its threshold tests are silently false on NaN, so a non-finite sample
   that arrives before the verdict is final poisons the attempt instead;
   feeding then ends, and the run still goes on to tstop, where a kernel
   failure keeps its retry.  Only a detection returns [`Stop]. *)
let detector config ~times ~nom =
  let state =
    ref
      (match Detect.Incremental.create ~tolerance:config.tolerance ~times ~nom with
      | Ok det -> `Feeding det
      | Error msg -> `Final (Sim_failed (Crashed ("detect: " ^ msg))))
  in
  let feed _ value =
    match !state with
    | `Final _ -> `Continue
    | `Feeding _ when not (Float.is_finite value) ->
      state := `Final (Sim_failed (Crashed "detect: faulty response contains non-finite samples"));
      `Continue
    | `Feeding det -> (
      match Detect.Incremental.feed det value with
      | Detect.Incremental.Pending -> `Continue
      | Detect.Incremental.Clear ->
        state := `Final Undetected;
        `Continue
      | Detect.Incremental.Detected i ->
        state := `Final (Detected times.(i));
        `Stop)
  in
  let outcome () =
    match !state with
    | `Final outcome -> outcome
    (* the engine feeds every grid time of a run the probe did not stop *)
    | `Feeding _ -> assert false
  in
  ({ Sim.Engine.Session.observe = config.observed; grid = times; feed }, outcome)

(* One attempt: one transient of the fault's [delta] - as [patch] on the
   session, or, past the overlay reserve, on a session opened on the
   materialised faulty circuit - judged by its detector.  A detection
   ends the run, counted as a drop. *)
let simulate_attempt config cfg sess ~nominal delta patch =
  let probe, outcome =
    detector config ~times:(Sim.Waveform.times nominal)
      ~nom:(Sim.Waveform.samples nominal config.observed)
  in
  let run s =
    let { Netlist.Parser.tstep; tstop; uic } = cfg.tran in
    Sim.Engine.Session.transient ~options:cfg.sim_options ~probe s ~tstep ~tstop ~uic
  in
  let _, stats =
    match patch with
    | Some patch -> Sim.Engine.Session.with_patch sess patch run
    | None ->
      let faulty = Netlist.Circuit.materialise (Sim.Engine.Session.circuit sess) delta in
      run (Sim.Engine.Session.create ~obs:config.obs faulty)
  in
  let outcome = outcome () in
  (match outcome with
  | Detected _ -> Obs.count config.obs "batch.drops" 1
  | Undetected | Sim_failed _ -> ());
  (outcome, stats)

(* One fault through its retry ladder.  The baseline rung runs the patch
   the chunk already compiled ([prepared]; [None] when injection raised,
   so the rung re-injects and the ladder classifies the error); every
   later rung injects and compiles its own.  A fault that overflowed the
   overlay stays on sessions of its own for its remaining rungs. *)
let run_fault config sess ~nominal fault prepared =
  fault_span config fault (fun sp ->
      let t0 = Sys.time () in
      let finish ~attempts outcome stats =
        { fault; outcome; attempts; stats; cpu_seconds = Sys.time () -. t0 }
      in
      let rebuilt = ref false in
      let pending = ref prepared in
      let attempt cfg =
        let delta, patch =
          match !pending with
          | Some prepared ->
            pending := None;
            prepared
          | None ->
            let delta =
              Faults.Inject.delta ~model:cfg.model (Sim.Engine.Session.index sess) fault
            in
            (delta, if !rebuilt then None else compile sess delta)
        in
        if Option.is_none patch && not !rebuilt then begin
          rebuilt := true;
          Obs.set sp "path" (Obs.Str "rebuild");
          Obs.count config.obs "session.rebuild" 1
        end;
        simulate_attempt config cfg sess ~nominal delta patch
      in
      run_ladder config ~sp ~finish attempt)

(* The fault cycle of one chunk (see the interface). *)
let run_chunk config sess ~nominal faults =
  let index = Sim.Engine.Session.index sess in
  let prepared =
    List.map
      (fun fault ->
        match
          let delta = Faults.Inject.delta ~model:config.model index fault in
          (delta, compile sess delta)
        with
        | prepared -> Some prepared
        | exception _ -> None)
      faults
  in
  Sim.Engine.Session.prime sess (List.filter_map (fun p -> Option.bind p snd) prepared);
  let before = Sim.Engine.Session.newton_iterations sess in
  let results =
    List.map2
      (fun fault prepared ->
        guard fault (fun () -> run_fault config sess ~nominal fault prepared))
      faults prepared
  in
  (* The Newton solves a chunk runs on its session share the chunk's
     primed symbolic analysis: each is a factorisation, or a reuse of
     the factors when the matrix has not changed since the last one. *)
  let shared = Sim.Engine.Session.newton_iterations sess - before in
  if shared > 0 then Obs.count config.obs "batch.shared_factorisations" shared;
  results

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
