(** The first-class campaign API: one typed description of a fault
    campaign ({!spec}), one typed stream of things that happen to it
    ({!event}), one typed product ({!result}) - each with a total JSON
    codec - and the execution entry points every front end shares.

    The CLI and the [anafaultd] daemon both speak this vocabulary: a
    local run and a remote submission are the same {!spec} pushed
    through the same {!compile}/{!run_local} machinery, differing only
    in who drives the loop.  {!default_options} is the one encoding of
    the paper's working point; {!config_of_options} turns it into the
    {!Simulate.config} the [run_chunk] engine room
    underneath runs on (see the migration notes in DESIGN.md). *)

(** {1 Options}

    Everything about a campaign that is not the circuit, the stimulus or
    the fault list, collapsed into one documented record: fault model,
    detection tolerance, kernel options (integration method and work
    budget included), retry ladder, output grid, scheduler width and
    chunk width.  The record round-trips through
    JSON ({!options_to_json}/{!options_of_json}) and builds from
    CLI-shaped primitives ({!options_of_cli}). *)
type options = {
  model : Faults.Inject.model;  (** fault injection model *)
  tolerance : Detect.tolerance;  (** detection tolerance (volts, seconds) *)
  sim : Sim.Engine.options;
      (** kernel options; its [budget] bounds each fault simulation *)
  retries : Outcome.strategy list;  (** escalation ladder after failures *)
  samples : int;  (** output grid size (the paper's 400-step run) *)
  domains : int;  (** scheduler width; 1 = serial *)
  batch : int;
      (** chunk width: faults sharing one primed session; 0 = automatic.
          Pure schedule: every width gives the same results *)
}

(** The paper's working point: source model, 2 V / 0.2 us tolerance,
    default kernel options, a one-rung [Swap_model] ladder, 400 samples,
    one domain, automatic batch width. *)
val default_options : options

val options_to_json : options -> Obs.Json.t

(** Total inverse of {!options_to_json}.  Missing fields take their
    {!default_options} value; ill-typed fields are errors, and so are
    out-of-range values: [samples < 2], [domains < 1], [batch < 0] or
    [max_iter < 1]. *)
val options_of_json : Obs.Json.t -> (options, string) result

(** [options_of_cli ()] builds {!options} from the CLI's primitive
    flags, validating each, ranges as {!options_of_json} does: [model]
    is ["source"]/["resistor"], [retries] a comma-separated ladder (or
    ["none"]), the [budget_*] knobs the per-fault work budget. *)
val options_of_cli :
  ?model:string ->
  ?tol_v:float ->
  ?tol_t:float ->
  ?retries:string ->
  ?samples:int ->
  ?domains:int ->
  ?batch:int ->
  ?budget_iters:int ->
  ?budget_steps:int ->
  ?budget_seconds:float ->
  unit ->
  (options, string) result

(** [config_of_options opts ~tran ~observed] is the {!Simulate.config}
    the engine room runs on; [obs] defaults to {!Obs.null}. *)
val config_of_options :
  ?obs:Obs.sink ->
  options ->
  tran:Netlist.Parser.tran ->
  observed:string ->
  Simulate.config

(** {1 Specs} *)

(** A complete, self-contained campaign description - the unit of work
    the daemon accepts and the cache is keyed on.  [deck] is SPICE
    netlist text carrying a [.tran] card; [faults] is fault-list text in
    the LIFT interchange format; [observed = None] lets the output node
    default ({!Simulate.default_observed}). *)
type spec = {
  deck : string;
  observed : string option;
  faults : string;
  options : options;
}

val spec_to_json : spec -> Obs.Json.t

val spec_of_json : Obs.Json.t -> (spec, string) result

(** {1 Compilation} *)

(** A parsed, validated spec, ready to run: the circuit, its stimulus,
    the resolved observed node, the fault list and the engine-room
    config - plus the campaign {!fingerprint} identifying it. *)
type compiled = {
  circuit : Netlist.Circuit.t;
  tran : Netlist.Parser.tran;
  observed : string;
  faults : Faults.Fault.t list;
  config : Simulate.config;
  fingerprint : string;
      (** {!Simulate.fingerprint} over deck, options and fault list -
          the content address a cache entry and a journal are keyed by *)
}

(** Parse and validate a spec: its options must be in range (the
    {!options_of_json} rules), the deck must parse and carry a [.tran]
    card, the fault list must parse, and an explicit observed node must
    exist in the circuit.  [obs] becomes the campaign's telemetry sink. *)
val compile : ?obs:Obs.sink -> spec -> (compiled, string) result

(** [with_cancel compiled token] threads a cooperative cancel token
    into the compiled campaign's engine options.  Run-state only: the
    fingerprint (already computed) ignores it, so cancellable and
    uncancellable runs share journals and cache entries. *)
val with_cancel : compiled -> Cancel.t -> compiled

(** {1 Results} *)

type result = {
  fingerprint : string;
  total : int;
  results : Outcome.fault_result list;  (** in fault-list order *)
  wall_seconds : float;
  cached : bool;  (** served from a result cache, no simulation run *)
}

val result_to_json : result -> Obs.Json.t

(** [result_of_json ~faults json] rebuilds a result against the
    campaign's fault array (the codec stores per-fault indices and ids,
    not whole faults - both ends of the wire hold the spec). *)
val result_of_json :
  faults:Faults.Fault.t array -> Obs.Json.t -> (result, string) Stdlib.result

(** Detected / undetected / failed counts. *)
val tally : result -> int * int * int

(** {1 Events}

    The typed progress stream a campaign emits while it runs - what the
    daemon writes to its clients, one JSON object per line. *)
type event =
  | Accepted of { fingerprint : string; total : int }
      (** the job was admitted (queued or about to run) *)
  | Progress of { completed : int; total : int }
  | Cache_hit of { fingerprint : string }
      (** the result that follows was served from the cache *)
  | Cancelled of { fingerprint : string; reason : string; salvaged : int }
      (** the job was cancelled (request, deadline, or orphaned);
          [salvaged] results reached the campaign journal before the
          stop and will be skipped by an identical resubmission.  A
          terminal event: nothing follows it *)
  | Finished of result
  | Failed of { message : string }

val event_to_json : event -> Obs.Json.t

val event_of_json :
  faults:Faults.Fault.t array -> Obs.Json.t -> (event, string) Stdlib.result

(** {1 Execution} *)

(** What a local (in-process) campaign execution returns: the full
    engine-room run (nominal waveform included, for plots and
    summaries), the scheduler's load report, and the wire-shaped
    {!result}. *)
type local = {
  run : Simulate.run;
  domain_stats : Parsim.domain_stats list;
  result : result;
}

(** [run_local compiled] executes the campaign in-process through
    {!Parsim.execute}, on the compiled options' domain count and batch
    width.  [progress] and [journal] are
    passed through; exceptions of the nominal simulation propagate
    ({!Sim.Engine.Sim_error}). *)
val run_local :
  ?progress:(int -> int -> unit) ->
  ?journal:Journal.t ->
  compiled ->
  local
