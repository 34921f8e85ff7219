(** The per-fault simulation cycle: the nominal run, then one kernel
    simulation per fault with result comparison (the paper's repetitive
    preprocessing / kernel / post-processing cycle).  {!Parsim.execute}
    is the loop that drives it over a fault list.

    The cycle is batch-shaped: one {!Sim.Engine.Session} per domain
    carries the node map and solver buffers across the fault list, and
    each fault is a patch-simulate-compare cycle against it.  Per-fault
    robustness is layered: a typed failure taxonomy ({!Outcome.failure}),
    a work budget ({!Sim.Engine.budget}, applied per fault - the nominal
    run is always unbudgeted), a configurable retry ladder ([retries]),
    session quarantine after kernel failures, and an optional crash-safe
    {!Journal} for resumable campaigns.

    This module is the engine room.  Front ends should not call
    [run_one_in]/[run_batch] directly: describe the campaign as
    a {!Campaign.spec} and execute it with {!Campaign.run_local} (or
    submit it to a running [anafaultd]).  The migration guide lives in
    DESIGN.md. *)

(** The single place a fault-simulation run is described: fault model,
    stimulus, observation point, detection tolerance, kernel options,
    retry policy, output grid, scheduler width and telemetry sink.
    Every front end (CLI, benches, examples) derives one from
    {!Campaign.default_options} with {!Campaign.config_of_options} and
    hands it to {!Parsim.execute}. *)
type config = {
  model : Faults.Inject.model;  (** fault simulation model *)
  tran : Netlist.Parser.tran;  (** analysis request *)
  observed : string;  (** the node whose waveform the test observes *)
  tolerance : Detect.tolerance;
  sim_options : Sim.Engine.options;
      (** kernel options; its [budget] bounds each {e fault} simulation
          (the nominal reference run is exempt) *)
  retries : Outcome.strategy list;
      (** escalation ladder tried, in order, after the baseline attempt
          fails with a retryable kernel failure; each rung perturbs the
          baseline config independently *)
  samples : int;  (** output grid size (the paper uses a 400-step run) *)
  domains : int;  (** scheduler width for {!Parsim.execute}; 1 = serial *)
  batch : int;
      (** lock-step batch width for {!run_batch}: how many faulty
          variants advance together through one shared time grid.  0
          (the default) resolves automatically via {!effective_batch};
          1 forces the exact per-fault serial path *)
  obs : Obs.sink;  (** telemetry sink threaded through the kernel, the
                       sessions and the per-fault loop *)
}

(** The lock-step batch width actually used for a campaign of [total]
    faults: an explicit [config.batch] verbatim, otherwise an automatic
    width that keeps at least four batches per domain available for work
    stealing, clamps at 16, and degenerates to 1 (the exact serial path)
    for small campaigns. *)
val effective_batch : config -> total:int -> int

(** The last non-ground node of the circuit - by SPICE habit the
    output - for callers that let the observed node default. *)
val default_observed : Netlist.Circuit.t -> string

(** Why a fault produced no comparable waveform; re-exported from
    {!Outcome} so existing matches keep compiling. *)
type failure = Outcome.failure =
  | Dc_no_convergence of string
  | Tran_step_underflow of string
  | Singular_matrix of string
  | Bad_injection of string
  | Budget_exceeded of string
  | Cancelled of string
  | Crashed of string

type outcome = Outcome.outcome =
  | Detected of float  (** first detection time *)
  | Undetected
  | Sim_failed of failure
      (** the kernel gave up, the injection was invalid, the work budget
          tripped, or the simulation crashed - see the payload *)

type attempt = Outcome.attempt = {
  strategy : Outcome.strategy;
  failure : failure option;  (** [None]: this attempt won *)
}

type fault_result = Outcome.fault_result = {
  fault : Faults.Fault.t;
  outcome : outcome;
  attempts : attempt list;
      (** the retry ladder as executed, baseline first; every failed
          rung keeps its own failure, so the original error survives a
          successful (or failed) retry *)
  stats : Sim.Engine.stats;
  cpu_seconds : float;
}

(** {!Outcome.failure_to_string}, re-exported for presentation code. *)
val failure_to_string : failure -> string

type run = {
  config : config;
  nominal : Sim.Waveform.t;
  nominal_stats : Sim.Engine.stats;
  results : fault_result list;
  wall_seconds : float;  (** elapsed wall-clock time of the whole loop *)
  cpu_seconds : float;
      (** process CPU time of the whole loop; under {!Parsim} this sums
          the work of every domain, so wall and CPU diverge exactly by
          the parallel speedup *)
}

(** All-zero work counters (placeholder for failed simulations). *)
val zero_stats : Sim.Engine.stats

(** [nominal config circuit] runs the fault-free simulation (unbudgeted),
    resampled onto the uniform output grid, inside an
    ["anafault.nominal"] span. *)
val nominal : config -> Netlist.Circuit.t -> Sim.Waveform.t * Sim.Engine.stats

(** [session config circuit] opens an engine session on the nominal
    circuit with the config's simulator options and telemetry sink -
    the shared state for a batch of {!run_one_in} calls. *)
val session : config -> Netlist.Circuit.t -> Sim.Engine.Session.t

(** [run_one_in config session ~nominal fault] injects, simulates and
    compares one fault through the shared session: the fault is applied
    as a device patch, simulated in the session's buffers, and the
    nominal view is restored afterwards.  An injection that exceeds the
    session's patch capacity is simulated on a full rebuild instead
    (counted once per fault as ["session.rebuild"]), for that rung and
    every later one.  Runs the retry ladder; emits one ["anafault.fault"]
    span tagged with the fault, its path ([session] or [rebuild]),
    outcome, failure class, attempt count and winning strategy. *)
val run_one_in :
  config ->
  Sim.Engine.Session.t ->
  nominal:Sim.Waveform.t ->
  Faults.Fault.t ->
  fault_result

(** [guard fault thunk] isolates a per-fault failure: any exception the
    simulation paths do not already map becomes a
    [Sim_failed (Crashed _)] result instead of aborting the batch. *)
val guard : Faults.Fault.t -> (unit -> fault_result) -> fault_result

(** [run_batch config session ~nominal faults] simulates the whole list
    as one lock-step batch on [session]
    ({!Sim.Engine.Session.transient_batch}): all variants share the
    session buffers and one sparse symbolic pattern, advance together
    through the nominal output grid, and each is dropped (counted as
    ["batch.drops"]) the moment its {!Detect.Incremental} verdict is
    final - a detected fault pays only the transient prefix needed to
    detect it.  Variants that run to tstop are compared exactly like
    {!run_one_in}, so their outcomes are bit-identical to the serial
    path; dropped variants report detection at the same grid instant the
    serial comparison finds (the observed values differ only by a
    rounding-level interpolation difference).  Faults the batch cannot
    carry - injection errors, patch overflow, kernel failures (which may
    still be rescued by the retry ladder) - fall back to {!run_one_in}
    individually; a failure of the batch machinery itself retires the
    whole list to the serial path (counted as ["batch.fallback"]).
    Results are returned in input order; every fault gets the usual
    ["anafault.fault"] span.  A width-1 batch {e is} the serial path. *)
val run_batch :
  config ->
  Sim.Engine.Session.t ->
  nominal:Sim.Waveform.t ->
  Faults.Fault.t list ->
  fault_result list

(** [fingerprint config circuit faults] is the campaign identity a
    {!Journal} is keyed by: a digest over the printed circuit deck,
    every result-affecting config field, and the printed fault list.
    The domain count and telemetry sink are excluded (results are
    schedule-independent). *)
val fingerprint : config -> Netlist.Circuit.t -> Faults.Fault.t list -> string

(** Detected / undetected / failed counts. *)
val tally : run -> int * int * int

(** Failed-fault counts by failure class ({!Outcome.failure_kind} tag),
    sorted by tag - the breakdown {!Report.pp_summary} prints. *)
val failure_tally : run -> (string * int) list
