(* The first-class campaign API: typed spec/event/result with total JSON
   codecs, plus the shared execution entry point (the local run).  Every
   front end - the CLI and the anafaultd daemon - goes through this
   module; Simulate/Parsim are the engine room below. *)

module J = Obs.Json

let ( let* ) = Result.bind

let opt_to_json f = function None -> J.Null | Some v -> f v

(* --- Options ----------------------------------------------------------- *)

type options = {
  model : Faults.Inject.model;
  tolerance : Detect.tolerance;
  sim : Sim.Engine.options;
  retries : Outcome.strategy list;
  samples : int;
  domains : int;
  batch : int;
}

let default_options =
  {
    model = Faults.Inject.Source;
    tolerance = Detect.paper_tolerance;
    sim = Sim.Engine.default_options;
    retries = [ Outcome.Swap_model ];
    samples = 400;
    domains = 1;
    batch = 0;
  }

let model_to_json = function
  | Faults.Inject.Source -> J.Obj [ ("kind", J.String "source") ]
  | Faults.Inject.Resistor { r_short; r_open } ->
    J.Obj
      [
        ("kind", J.String "resistor");
        ("r_short", J.Float r_short);
        ("r_open", J.Float r_open);
      ]

let model_of_json json =
  let* fields = J.obj_fields json in
  let* kind = J.require fields "kind" J.as_str in
  match kind with
  | "source" -> Ok Faults.Inject.Source
  | "resistor" ->
    let default_short, default_open =
      match Faults.Inject.default_resistor with
      | Faults.Inject.Resistor { r_short; r_open } -> (r_short, r_open)
      | Faults.Inject.Source -> assert false
    in
    let* r_short = J.get fields "r_short" ~default:default_short J.as_float in
    let* r_open = J.get fields "r_open" ~default:default_open J.as_float in
    Ok (Faults.Inject.Resistor { r_short; r_open })
  | other -> Error ("unknown fault model " ^ other)

let tolerance_to_json (t : Detect.tolerance) =
  J.Obj [ ("tol_v", J.Float t.Detect.tol_v); ("tol_t", J.Float t.Detect.tol_t) ]

let tolerance_of_json json =
  let* fields = J.obj_fields json in
  let d = Detect.paper_tolerance in
  let* tol_v = J.get fields "tol_v" ~default:d.Detect.tol_v J.as_float in
  let* tol_t = J.get fields "tol_t" ~default:d.Detect.tol_t J.as_float in
  Ok { Detect.tol_v; tol_t }

let integration_to_string = function
  | Sim.Engine.Backward_euler -> "be"
  | Sim.Engine.Trapezoidal -> "trap"

let integration_of_string = function
  | "be" -> Ok Sim.Engine.Backward_euler
  | "trap" -> Ok Sim.Engine.Trapezoidal
  | other -> Error ("unknown integration method " ^ other ^ " (be|trap)")

let budget_to_json (b : Sim.Engine.budget) =
  J.Obj
    [
      ( "max_newton_iterations",
        opt_to_json (fun i -> J.Int i) b.Sim.Engine.max_newton_iterations );
      ("max_steps", opt_to_json (fun i -> J.Int i) b.Sim.Engine.max_steps);
      ( "deadline_seconds",
        opt_to_json (fun f -> J.Float f) b.Sim.Engine.deadline_seconds );
    ]

let budget_of_json json =
  let* fields = J.obj_fields json in
  let* max_newton_iterations =
    J.get fields "max_newton_iterations" ~default:None (J.as_opt J.as_int)
  in
  let* max_steps = J.get fields "max_steps" ~default:None (J.as_opt J.as_int) in
  let* deadline_seconds =
    J.get fields "deadline_seconds" ~default:None (J.as_opt J.as_float)
  in
  Ok { Sim.Engine.max_newton_iterations; max_steps; deadline_seconds }

let sim_options_to_json (o : Sim.Engine.options) =
  J.Obj
    [
      ("gmin", J.Float o.Sim.Engine.gmin);
      ("reltol", J.Float o.Sim.Engine.reltol);
      ("abstol", J.Float o.Sim.Engine.abstol);
      ("max_iter", J.Int o.Sim.Engine.max_iter);
      ("dv_limit", J.Float o.Sim.Engine.dv_limit);
      ("cmin", J.Float o.Sim.Engine.cmin);
      ("integration", J.String (integration_to_string o.Sim.Engine.integration));
      ("budget", budget_to_json o.Sim.Engine.budget);
    ]

let sim_options_of_json json =
  let* fields = J.obj_fields json in
  let d = Sim.Engine.default_options in
  let* gmin = J.get fields "gmin" ~default:d.Sim.Engine.gmin J.as_float in
  let* reltol = J.get fields "reltol" ~default:d.Sim.Engine.reltol J.as_float in
  let* abstol = J.get fields "abstol" ~default:d.Sim.Engine.abstol J.as_float in
  let* max_iter = J.get fields "max_iter" ~default:d.Sim.Engine.max_iter J.as_int in
  let* dv_limit = J.get fields "dv_limit" ~default:d.Sim.Engine.dv_limit J.as_float in
  let* cmin = J.get fields "cmin" ~default:d.Sim.Engine.cmin J.as_float in
  let* integration =
    J.get fields "integration" ~default:d.Sim.Engine.integration (fun v ->
        let* s = J.as_str v in
        integration_of_string s)
  in
  let* budget =
    J.get fields "budget" ~default:d.Sim.Engine.budget budget_of_json
  in
  Ok
    {
      Sim.Engine.gmin;
      reltol;
      abstol;
      max_iter;
      dv_limit;
      cmin;
      integration;
      budget;
      (* Run-state, never serialised: the submitting side's token is
         meaningless in another process. *)
      cancel = Cancel.never;
    }

let retries_of_spec spec =
  match String.trim spec with
  | "" | "none" -> Ok []
  | spec ->
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.fold_left
         (fun acc s ->
           let* acc = acc in
           let* strategy = Outcome.strategy_of_string s in
           Ok (strategy :: acc))
         (Ok [])
    |> Result.map List.rev

(* The one check every way of building {!options} goes through: the
   JSON decoder (daemon submits, --spec files), the CLI constructor and
   {!compile}, so a bad campaign is refused before anything runs. *)
let validate_options o =
  if o.samples < 2 then Error "samples must be at least 2"
  else if o.domains < 1 then Error "domains must be at least 1"
  else if o.batch < 0 then Error "batch must be non-negative"
  else if o.sim.Sim.Engine.max_iter < 1 then Error "max_iter must be at least 1"
  else Ok o

let options_to_json o =
  J.Obj
    [
      ("model", model_to_json o.model);
      ("tolerance", tolerance_to_json o.tolerance);
      ("sim", sim_options_to_json o.sim);
      ( "retries",
        J.List
          (List.map (fun s -> J.String (Outcome.strategy_to_string s)) o.retries)
      );
      ("samples", J.Int o.samples);
      ("domains", J.Int o.domains);
      ("batch", J.Int o.batch);
    ]

let options_of_json json =
  let* fields = J.obj_fields json in
  let d = default_options in
  let* model = J.get fields "model" ~default:d.model model_of_json in
  let* tolerance =
    J.get fields "tolerance" ~default:d.tolerance tolerance_of_json
  in
  let* sim = J.get fields "sim" ~default:d.sim sim_options_of_json in
  let* retries =
    J.get fields "retries" ~default:d.retries
      (J.list_of (fun j ->
           let* s = J.as_str j in
           Outcome.strategy_of_string s))
  in
  let* samples = J.get fields "samples" ~default:d.samples J.as_int in
  let* domains = J.get fields "domains" ~default:d.domains J.as_int in
  let* batch = J.get fields "batch" ~default:d.batch J.as_int in
  validate_options { model; tolerance; sim; retries; samples; domains; batch }

let options_of_cli ?(model = "source")
    ?(tol_v = Detect.paper_tolerance.Detect.tol_v)
    ?(tol_t = Detect.paper_tolerance.Detect.tol_t) ?(retries = "swap-model")
    ?(samples = 400) ?(domains = 1) ?(batch = 0) ?budget_iters ?budget_steps
    ?budget_seconds () =
  let* model =
    match model with
    | "source" -> Ok Faults.Inject.Source
    | "resistor" -> Ok Faults.Inject.default_resistor
    | other -> Error (Printf.sprintf "unknown model %S (source|resistor)" other)
  in
  let* retries = retries_of_spec retries in
  validate_options
    {
      model;
      tolerance = { Detect.tol_v; tol_t };
      sim =
        {
          Sim.Engine.default_options with
          Sim.Engine.budget =
            {
              Sim.Engine.max_newton_iterations = budget_iters;
              max_steps = budget_steps;
              deadline_seconds = budget_seconds;
            };
        };
      retries;
      samples;
      domains;
      batch;
    }

let config_of_options ?(obs = Obs.null) o ~tran ~observed =
  {
    Simulate.model = o.model;
    tran;
    observed;
    tolerance = o.tolerance;
    sim_options = o.sim;
    retries = o.retries;
    samples = o.samples;
    domains = o.domains;
    batch = o.batch;
    obs;
  }

(* --- Specs ------------------------------------------------------------- *)

type spec = {
  deck : string;
  observed : string option;
  faults : string;
  options : options;
}

let spec_to_json s =
  J.Obj
    [
      ("anafault", J.String "campaign-spec");
      ("version", J.Int 1);
      ("deck", J.String s.deck);
      ("observed", opt_to_json (fun n -> J.String n) s.observed);
      ("faults", J.String s.faults);
      ("options", options_to_json s.options);
    ]

let spec_of_json json =
  let* fields = J.obj_fields json in
  let* tag = J.get fields "anafault" ~default:"campaign-spec" J.as_str in
  let* version = J.get fields "version" ~default:1 J.as_int in
  let* () =
    if tag <> "campaign-spec" then Error "not a campaign spec"
    else if version <> 1 then
      Error (Printf.sprintf "unsupported spec version %d" version)
    else Ok ()
  in
  let* deck = J.require fields "deck" J.as_str in
  let* observed = J.get fields "observed" ~default:None (J.as_opt J.as_str) in
  let* faults = J.require fields "faults" J.as_str in
  let* options =
    J.get fields "options" ~default:default_options options_of_json
  in
  Ok { deck; observed; faults; options }

(* --- Compilation ------------------------------------------------------- *)

type compiled = {
  circuit : Netlist.Circuit.t;
  tran : Netlist.Parser.tran;
  observed : string;
  faults : Faults.Fault.t list;
  config : Simulate.config;
  fingerprint : string;
}

let compile ?(obs = Obs.null) spec =
  let* (_ : options) = validate_options spec.options in
  match Netlist.Parser.parse spec.deck with
  | exception Netlist.Parser.Parse_error (line, msg) ->
    Error (Printf.sprintf "deck line %d: %s" line msg)
  | deck -> begin
    match deck.Netlist.Parser.tran with
    | None -> Error "deck has no .tran card"
    | Some tran -> begin
      let circuit = deck.Netlist.Parser.circuit in
      match Faults.Fault_list.of_string spec.faults with
      | exception Faults.Fault_list.Parse_error (line, msg) ->
        Error (Printf.sprintf "fault list line %d: %s" line msg)
      | faults ->
        let* observed =
          match spec.observed with
          | None -> Ok (Simulate.default_observed circuit)
          | Some node ->
            if List.mem node (Netlist.Circuit.nodes circuit) then Ok node
            else
              Error
                (Printf.sprintf "observed node %S is not in the circuit" node)
        in
        let config = config_of_options ~obs spec.options ~tran ~observed in
        let fingerprint = Simulate.fingerprint config circuit faults in
        Ok { circuit; tran; observed; faults; config; fingerprint }
    end
  end

(* Attach a cancel token to a compiled campaign.  Pure run-state: the
   fingerprint was computed before and ignores it, so a cancellable run
   shares journals and cache entries with an uncancellable one. *)
let with_cancel compiled cancel =
  {
    compiled with
    config =
      {
        compiled.config with
        Simulate.sim_options =
          { compiled.config.Simulate.sim_options with Sim.Engine.cancel };
      };
  }

(* --- Results ----------------------------------------------------------- *)

type result = {
  fingerprint : string;
  total : int;
  results : Outcome.fault_result list;
  wall_seconds : float;
  cached : bool;
}

let result_to_json r =
  J.Obj
    [
      ("anafault", J.String "campaign-result");
      ("fingerprint", J.String r.fingerprint);
      ("total", J.Int r.total);
      ("cached", J.Bool r.cached);
      ("wall_seconds", J.Float r.wall_seconds);
      ( "results",
        J.List
          (List.mapi (fun index fr -> Outcome.result_to_json ~index fr) r.results)
      );
    ]

let result_of_json ~faults json =
  let* fields = J.obj_fields json in
  let* fingerprint = J.require fields "fingerprint" J.as_str in
  let* total = J.require fields "total" J.as_int in
  let* cached = J.get fields "cached" ~default:false J.as_bool in
  let* wall_seconds = J.get fields "wall_seconds" ~default:0.0 J.as_float in
  let* indexed =
    J.require fields "results" (J.list_of (Outcome.result_of_json ~faults))
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) indexed in
  if List.length sorted <> total then
    Error
      (Printf.sprintf "result holds %d of %d faults" (List.length sorted) total)
  else if not (List.for_all2 (fun i (j, _) -> i = j) (List.init total Fun.id) sorted)
  then Error "result indices are not the contiguous range"
  else
    Ok
      { fingerprint; total; results = List.map snd sorted; wall_seconds; cached }

let tally r =
  List.fold_left
    (fun (d, u, f) (fr : Outcome.fault_result) ->
      match fr.Outcome.outcome with
      | Outcome.Detected _ -> (d + 1, u, f)
      | Outcome.Undetected -> (d, u + 1, f)
      | Outcome.Sim_failed _ -> (d, u, f + 1))
    (0, 0, 0) r.results

let result_of_run ~fingerprint (run : Simulate.run) =
  {
    fingerprint;
    total = List.length run.Simulate.results;
    results = run.Simulate.results;
    wall_seconds = run.Simulate.wall_seconds;
    cached = false;
  }

(* --- Events ------------------------------------------------------------ *)

type event =
  | Accepted of { fingerprint : string; total : int }
  | Progress of { completed : int; total : int }
  | Cache_hit of { fingerprint : string }
  | Cancelled of { fingerprint : string; reason : string; salvaged : int }
  | Finished of result
  | Failed of { message : string }

let event_to_json = function
  | Accepted { fingerprint; total } ->
    J.Obj
      [
        ("event", J.String "accepted");
        ("fingerprint", J.String fingerprint);
        ("total", J.Int total);
      ]
  | Progress { completed; total } ->
    J.Obj
      [
        ("event", J.String "progress");
        ("completed", J.Int completed);
        ("total", J.Int total);
      ]
  | Cache_hit { fingerprint } ->
    J.Obj
      [ ("event", J.String "cache_hit"); ("fingerprint", J.String fingerprint) ]
  | Cancelled { fingerprint; reason; salvaged } ->
    J.Obj
      [
        ("event", J.String "cancelled");
        ("fingerprint", J.String fingerprint);
        ("reason", J.String reason);
        ("salvaged", J.Int salvaged);
      ]
  | Finished result ->
    J.Obj [ ("event", J.String "finished"); ("result", result_to_json result) ]
  | Failed { message } ->
    J.Obj [ ("event", J.String "failed"); ("message", J.String message) ]

let event_of_json ~faults json =
  let* fields = J.obj_fields json in
  let* tag = J.require fields "event" J.as_str in
  match tag with
  | "accepted" ->
    let* fingerprint = J.require fields "fingerprint" J.as_str in
    let* total = J.require fields "total" J.as_int in
    Ok (Accepted { fingerprint; total })
  | "progress" ->
    let* completed = J.require fields "completed" J.as_int in
    let* total = J.require fields "total" J.as_int in
    Ok (Progress { completed; total })
  | "cache_hit" ->
    let* fingerprint = J.require fields "fingerprint" J.as_str in
    Ok (Cache_hit { fingerprint })
  | "cancelled" ->
    let* fingerprint = J.require fields "fingerprint" J.as_str in
    let* reason = J.require fields "reason" J.as_str in
    let* salvaged = J.get fields "salvaged" ~default:0 J.as_int in
    Ok (Cancelled { fingerprint; reason; salvaged })
  | "finished" ->
    let* result = J.require fields "result" (result_of_json ~faults) in
    Ok (Finished result)
  | "failed" ->
    let* message = J.require fields "message" J.as_str in
    Ok (Failed { message })
  | other -> Error ("unknown event " ^ other)

(* --- Execution --------------------------------------------------------- *)

type local = {
  run : Simulate.run;
  domain_stats : Parsim.domain_stats list;
  result : result;
}

let run_local ?progress ?journal compiled =
  let run, domain_stats =
    Parsim.execute ?progress ?journal compiled.config compiled.circuit
      compiled.faults
  in
  { run; domain_stats; result = result_of_run ~fingerprint:compiled.fingerprint run }
