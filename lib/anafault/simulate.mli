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
    [run_chunk] directly: describe the campaign as
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
      (** chunk width for {!run_chunk}: how many faults share one primed
          sparse pattern.  0 (the default) resolves automatically via
          {!effective_batch}.  The width is pure schedule: every width
          gives the same results *)
  obs : Obs.sink;  (** telemetry sink threaded through the kernel, the
                       sessions and the per-fault loop *)
}

(** The chunk width actually used for a campaign of [total] faults: an
    explicit [config.batch] verbatim, otherwise an automatic width that
    keeps at least four chunks per domain available for work stealing,
    clamps at 16, and degenerates to 1 (one fault a chunk) for small
    campaigns. *)
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
    ["anafault.nominal"] span.  Its times are the grid every fault
    attempt's {!detector} is fed on. *)
val nominal : config -> Netlist.Circuit.t -> Sim.Waveform.t * Sim.Engine.stats

(** [session config circuit] opens an engine session on the nominal
    circuit with the config's simulator options and telemetry sink -
    the shared state {!run_chunk} patches every fault into. *)
val session : config -> Netlist.Circuit.t -> Sim.Engine.Session.t

(** [guard fault thunk] isolates a per-fault failure: any exception the
    simulation paths do not already map becomes a
    [Sim_failed (Crashed _)] result instead of aborting the chunk. *)
val guard : Faults.Fault.t -> (unit -> fault_result) -> fault_result

(** [detector config ~times ~nom] is the comparison of one fault
    attempt: an engine probe on the nominal grid [times] that feeds each
    observed value of the run to a fresh {!Detect.Incremental} detector
    against [nom], and a reader of the attempt's outcome once the run
    has returned.  The outcome is [Detected t] at the grid instant [t]
    where the detector fires, [Undetected] when its verdict is clear, and
    [Sim_failed (Crashed "detect: faulty response contains non-finite
    samples")] when a non-finite value arrives before the verdict is
    final; a detection that is final first stands.  Only a detection
    stops the run; a poisoned or cleared run goes on to tstop, so a later
    kernel failure still raises.  A degenerate nominal
    grid gives [Sim_failed (Crashed "detect: <reason>")]. *)
val detector :
  config ->
  times:float array ->
  nom:float array ->
  Sim.Engine.Session.probe * (unit -> outcome)

(** [run_chunk config session ~nominal faults] is the fault cycle - inject,
    simulate, compare - for one chunk of faults, with results in input
    order:
    + every fault is injected as a delta of the session's base circuit
      ({!Faults.Inject.delta}) and compiled as a patch of [session]
      ({!Sim.Engine.Session.patch});
    + the session's sparse pattern is primed with the union of those
      patches once ({!Sim.Engine.Session.prime});
    + each fault runs its retry ladder in turn, every attempt one
      {!Sim.Engine.Session.transient} of its patch judged by its
      {!detector} on the nominal grid: the probe's verdict is the
      attempt's outcome.  The run stops the moment the fault is
      detected (counted as ["batch.drops"]), and the Newton iterations
      the chunk runs on its primed session, failed attempts included,
      count as ["batch.shared_factorisations"].  A stopped run never
      reaches a kernel failure or a budget limit that a run to tstop
      would hit later;
    + a patch that exceeds the session's overlay reserve runs the same
      attempt on a session opened on the materialised faulty circuit
      (counted once per fault as ["session.rebuild"]).

    Each fault emits one ["anafault.fault"] span tagged with the fault,
    [path=rebuild] when it ran on a session of its own, its outcome,
    failure class, attempt count and winning strategy.  A fault whose
    simulation raises an exception outside the failure taxonomy becomes
    a [Crashed] result ({!guard}). *)
val run_chunk :
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
