(** The kernel simulator: DC operating point and transient analysis.

    This plays the role ELDO played for the paper's AnaFAULT: it accepts a
    netlist (possibly rewritten by fault injection) and produces transient
    waveforms.  Nonlinear solves use damped Newton-Raphson; DC falls back
    to gmin stepping then source stepping; transient steps adaptively
    (iteration-count control) between source breakpoints.

    Each circuit topology's devices are compiled once into a stamp plan:
    the {!Sparse.targets} slot of every matrix entry and the row of every
    right-hand-side entry, in stamp order.  A Newton iteration is then one
    device loop adding into those slots, with no per-entry call and no
    allocation, followed by one sparse LU solve that refactorises with
    the pivot order of the topology's first factorisation; the MOSFET
    and diode evaluators write into a per-session scratch. *)

type integration = Backward_euler | Trapezoidal

(** A work budget for one analysis.  Each limit is cumulative over the
    whole analysis (all Newton solves, accepted and rejected steps);
    [None] means unlimited.  When any limit trips, the analysis raises
    {!Sim_error} with {!Budget_exceeded} - the deterministic alternative
    to letting a pathological fault stall its domain.  The deadline is
    checked once per proposed transient step, so the overshoot past the
    deadline is at most one Newton solve. *)
type budget = {
  max_newton_iterations : int option;
  max_steps : int option;  (** accepted + rejected transient steps *)
  deadline_seconds : float option;  (** wall clock, from transient start *)
}

(** No limits - the default. *)
val unlimited : budget

type options = {
  gmin : float;  (** conductance to ground on every node (default 1e-12) *)
  reltol : float;  (** relative convergence tolerance (1e-3) *)
  abstol : float;  (** absolute voltage tolerance, V (1e-6) *)
  max_iter : int;
      (** Newton iteration limit per DC solve: operating point, gmin and
          source stepping, DC sweeps, and the transient steps across
          which a source can jump - those starting at t = 0 or starting
          or ending on a source breakpoint (150) *)
  dv_limit : float;  (** per-iteration Newton step clamp, V (1.0) *)
  cmin : float;  (** parasitic node-to-ground capacitance in transient, F
                     (1e-16); damps idealised regenerative loops *)
  integration : integration;
      (** default [Backward_euler]: its numerical damping settles the
          high-gain metastable equilibria fault injection creates, which
          trapezoidal integration rings on; use [Trapezoidal] for
          accuracy-sensitive lightly-damped circuits *)
  budget : budget;  (** work limits for each analysis (default {!unlimited}) *)
  cancel : Cancel.t;
      (** cooperative cancellation token polled once per Newton
          iteration and once per proposed transient step (default
          {!Cancel.never}); a cancelled token raises {!Sim_error} with
          {!Cancelled}.  Run-state, not configuration: campaign
          fingerprints ignore it *)
}

val default_options : options

(** Newton iteration limit per transient solve (25), the analogue of
    SPICE's ITL4: a step that has not converged by then is rejected and
    retried at half the step.  Steps across which a source can jump run
    to [max_iter] instead. *)
val tran_max_iter : int

(** Why the kernel gave up.  The taxonomy is carried verbatim into
    AnaFAULT's per-fault outcomes, so a campaign report can tell a
    singular injected topology from a transient that merely stalled. *)
type error =
  | Dc_no_convergence
      (** the operating point defeated Newton, gmin stepping and source
          stepping *)
  | Tran_step_underflow
      (** the adaptive transient halved its step below [tstop * 1e-12]
          without Newton converging *)
  | Singular_matrix
      (** the factorisation hit a structurally singular system (e.g. an
          injected voltage-source loop) and no fallback found a solvable
          one; the detail string names the offending node or branch *)
  | Budget_exceeded  (** a limit of {!budget} tripped *)
  | Cancelled
      (** the options' {!Cancel.t} token was cancelled; the detail
          string carries the {!Cancel.reason} *)

(** Stable lower-snake tag of an {!error} (["dc_no_convergence"], ...),
    used in telemetry attributes and the campaign journal. *)
val error_to_string : error -> string

exception Sim_error of error * string
(** [Sim_error (reason, detail)]: an analysis failed; [detail] is a
    human-readable elaboration (where, at which time point). *)

exception Patch_overflow of string
(** A session patch needed more than the reserved overlay capacity - its
    devices name a second node, or a second branch, that the base
    circuit lacks (a bridge between two nets the deck does not have) -
    or replaced a device by one of another stamp layout.  The caller
    simulates the materialised faulty circuit on a session of its
    own. *)

type solution

(** Node voltage in a DC solution ([0.0] for ground). *)
val voltage : solution -> string -> float

(** Branch current through a voltage source or inductor. *)
val branch_current : solution -> string -> float

(** Work counters of an analysis (for the paper's runtime comparison of
    fault models). *)
type stats = {
  newton_iterations : int;
  accepted_steps : int;
  rejected_steps : int;
}

(** {1 The unified analysis entry point}

    Every one-shot analysis the engine offers is a value of
    {!Analysis.t}, executed by {!run}.  This is the single place a
    caller describes {e what} to compute; options and the telemetry
    sink ride alongside, so instrumentation reaches every analysis kind
    uniformly. *)

module Analysis : sig
  (** An analysis request. *)
  type t =
    | Op  (** DC operating point *)
    | Tran of { tstep : float; tstop : float; uic : bool }
        (** transient from 0 to [tstop]; [tstep] is the suggested output
            resolution and maximum internal step; with [uic] the initial
            state is zero node voltages overridden by capacitor [IC=]
            values (SPICE "use initial conditions") instead of the DC
            operating point.  The waveform carries every node voltage
            plus ["I(name)"] for each branch device *)
    | Dc_sweep of { source : string; values : float list }
        (** DC transfer characteristic: the operating point re-solved for
            each value of the named V or I source, warm-starting from the
            previous point (continuation) *)

  type result =
    | Op_result of solution
    | Tran_result of Waveform.t * stats
    | Sweep_result of (float * solution) list

  (** ["op"], ["tran"] or ["dc_sweep"] - the tag {!run} stamps
      on its telemetry span. *)
  val kind : t -> string

  (** Result projections.  Each raises [Invalid_argument] when the
      result came from a different analysis kind. *)

  val solution : result -> solution

  val waveform : result -> Waveform.t

  val stats : result -> stats

  val sweep : result -> (float * solution) list
end

(** [run ?options ?obs circuit analysis] executes [analysis] on
    [circuit].  [Op] and [Tran] run on a fresh {!Session.create}, through
    {!Session.solve_dc} and {!Session.transient}; [Dc_sweep] runs its
    points as patches of one session.  All kernel telemetry (Newton iterations per solve,
    stamping and LU time, dv-clamp hits, gmin/source-stepping fallbacks, step
    accept/reject) flows into [obs] (default {!Obs.null}, which is
    free); the whole analysis is additionally wrapped in an
    ["engine.analysis"] span tagged with {!Analysis.kind}.  Raises
    {!Sim_error} when the kernel gives up, and [Invalid_argument] for a
    malformed request ([tstep] outside [(0, tstop]], a non-finite
    [tstop], a sweep source that names no independent source). *)
val run :
  ?options:options ->
  ?obs:Obs.sink ->
  Netlist.Circuit.t ->
  Analysis.t ->
  Analysis.result

(** Batch solving of one circuit topology.

    A session builds the MNA node map, the compiled device array with
    its stamp plan and the solver state (stamp pattern, symbolic
    analysis, factors and right-hand side) once, then reuses them across any
    number of solves.  This is the paper's cost model made cheap: a fault
    simulation campaign is one nominal run plus one run per fault, where
    each faulty circuit differs from the nominal one by a device or two.
    A fault arrives as a {!Netlist.Circuit.delta} of the base circuit,
    and [patch] compiles only the delta: the patch shares the base
    plan's keys and resolved slots and copies its RHS rows, and only the
    replaced and appended devices are compiled, planned and resolved.  [with_patch] swaps the
    result in without re-deriving the node map.  The buffers reserve
    one overlay node row (a split-net open adds at most one node) and
    one overlay branch row (a bridge modelled as a 0 V source adds one
    branch current).

    Sessions are single-threaded: parallel fault simulation creates one
    session per domain. *)
module Session : sig
  type t

  (** [create ?options ?obs circuit] compiles [circuit] and allocates
      the shared solver state.  Kernel telemetry of every solve through
      this session flows into [obs]; [patch] additionally reports patch
      counts and overlay-row occupancy. *)
  val create : ?options:options -> ?obs:Obs.sink -> Netlist.Circuit.t -> t

  (** The base (nominal) circuit the session was built from. *)
  val circuit : t -> Netlist.Circuit.t

  (** The index of the base circuit that fault deltas are built against
      ({!Netlist.Circuit.index}), built on first use and kept for the
      session's life. *)
  val index : t -> Netlist.Circuit.index

  val options : t -> options

  (** DC operating point of the session's active circuit, reusing the
      session buffers.  Raises {!Sim_error} like {!run} of {!Analysis.Op}.
      [?options] overrides the session's solver options for this one
      solve (the buffers depend only on the topology) - retry ladders
      use it to relax tolerances without rebuilding the session. *)
  val solve_dc : ?options:options -> t -> solution

  (** A checkpoint probe for {!transient}: the run pauses at each time
      of [grid] (ascending; typically the nominal run's resampled times)
      once its accepted steps have passed it, reads the signal
      [observe] (a waveform name: node voltage or ["I(branch)"]) there,
      interpolated exactly as {!Waveform.resample} would, and hands
      [feed] the grid index and value.  [`Stop] ends the run early.  The
      fault loop judges every fault attempt by such a probe: its feed is
      the comparison with the nominal response. *)
  type probe = {
    observe : string;
    grid : float array;
    feed : int -> float -> [ `Continue | `Stop ];
  }

  (** Transient analysis of the session's active circuit, reusing the
      session buffers; same semantics as {!run} of {!Analysis.Tran}, same
      [?options] override as {!solve_dc}.  With [probe] the run records
      only the signal [probe.observe]: the waveform holds that one
      signal, at every accepted step up to the end of the run or the
      probe's stop, and the stats the work done so far.  A probe only
      reads the run, so a run it never stops takes the same steps as an
      unprobed one, and its one signal is bit-identical to the unprobed
      run's.
      Raises [Not_found] when [probe.observe] names no signal, as
      {!Waveform.samples} does. *)
  val transient :
    ?options:options ->
    ?probe:probe ->
    t ->
    tstep:float ->
    tstop:float ->
    uic:bool ->
    Waveform.t * stats

  (** Newton iterations of every {!transient} run on this session so
      far, runs that failed included. *)
  val newton_iterations : t -> int

  (** A compiled patch of the session's base circuit. *)
  type patch

  (** [patch t delta] compiles the circuit [delta] describes against the
      base.  Untouched devices keep their compiled form, their stamp
      plan ranges and their resolved slots; only the replaced and
      appended devices are compiled and planned, and only their keys
      are resolved.  Replaced devices keep their stamp positions and
      appended ones go last, so the patch's plan equals that of a
      session opened on [Netlist.Circuit.materialise (circuit t)
      delta].  The devices may name at most one node and one branch the
      base lacks (they take the overlay rows, in order of first use),
      and a replacement must keep its device's stamp layout (its kind);
      otherwise {!Patch_overflow}, counted as
      ["session.patch_overflow"].  Raises [Invalid_argument] when a
      replaced position is out of range or the positions do not
      ascend.  Counted as ["session.patch"]. *)
  val patch : t -> Netlist.Circuit.delta -> patch

  (** [prime t patches] compiles the union of the patches' stamp
      patterns into the session's solver once, so none of their later
      solves pays a symbolic analysis: a chunk of faults shares one.
      Once every coordinate of the base plan is in the pattern (after a
      base solve, or once the patches primed so far cover it), a patch
      reserves only its own devices' coordinates.  The first prime also fixes
      the solver's column order, once, as the minimum-degree order of
      the base circuit's transient pattern ({!Sparse.order}); later
      growth of the pattern recompiles without reordering. *)
  val prime : t -> patch list -> unit

  (** [with_patch t p f] runs [f] with the session's active circuit
      swapped for the patch [p], then restores the nominal view (also on
      exception). *)
  val with_patch : t -> patch -> (t -> 'a) -> 'a
end

(** {1 Internals for the test suite}

    Not a stable interface: the property tests use it to check the
    compiled stamp plan against an independent assembly. *)
module Private : sig
  (** One assembled system of a session's active view. *)
  type assembly = {
    names : string array;  (** the unknown of each row *)
    cells : (int * int * float) list;
        (** every stored matrix cell of the active system, [(row, col,
            value)] of the stamp pattern, in row-major order *)
    rhs : float array;
    solution : (float array, int) result;
        (** after one factor-solve of the assembled system, or the
            singular row *)
  }

  (** The unknown of each row of the session's active view. *)
  val unknowns : Session.t -> string array

  (** The stamp plan of the session's active view: its matrix keys
      ({!Sparse.key} of a solver whose capacity is the base's unknowns
      plus the two overlay rows; the devices' entries in device order,
      then one diagonal per pinned row), the RHS row of each RHS entry
      (that capacity for ground), and the pinned node rows. *)
  val plan : Session.t -> int array * int array * int array

  (** [assemble s ~mode ~prev v] sets the active view's integration
      state from the solution [prev] as a transient start does, then
      stamps once at iterate [v] ([`Dc scale]: the DC system with the
      sources scaled; [`Tran (h, time)]: a transient step of length [h]
      ending at [time], with [prev] as the previous node voltages) and
      factor-solves that system once. *)
  val assemble :
    Session.t ->
    mode:[ `Dc of float | `Tran of float * float ] ->
    prev:float array ->
    float array ->
    assembly
end

