(** The typed per-fault result vocabulary of a fault campaign: why a
    simulation failed, which retry strategies were attempted, and the
    JSON codec the crash-safe journal stores results with.

    This module sits below {!Simulate} (which re-exports the types) so
    that {!Journal} can read and write results without depending on the
    simulation loop. *)

(** Why one fault's simulation produced no comparable waveform.  The
    first three mirror {!Sim.Engine.error} (kernel convergence
    failures); the rest are campaign-level. *)
type failure =
  | Dc_no_convergence of string
  | Tran_step_underflow of string
  | Singular_matrix of string
  | Bad_injection of string
      (** the fault references a device/terminal the circuit lacks *)
  | Budget_exceeded of string
      (** the per-fault work budget ({!Sim.Engine.budget}) tripped *)
  | Cancelled of string
      (** the campaign's cancel token fired while this fault was being
          simulated; never journalled, so a resume re-runs it *)
  | Crashed of string
      (** an exception the simulation paths do not map; the payload is
          [Printexc.to_string] of it *)

(** Stable lower-snake tag: ["dc_no_convergence"] ... ["crashed"]. *)
val failure_kind : failure -> string

(** The human-readable elaboration carried by every constructor. *)
val failure_detail : failure -> string

(** ["kind: detail"], or just the kind when the detail is empty.  The
    single text codec for failures: the CLI table, the CSV, the wire
    protocol and log lines all render through this, and
    {!failure_of_string} reads it back. *)
val failure_to_string : failure -> string

(** Inverse of {!failure_to_string}: parses ["kind"] or ["kind: detail"]. *)
val failure_of_string : string -> (failure, string) result

(** Inverse of {!failure_kind}, reattaching a detail string. *)
val failure_of_kind : string -> string -> (failure, string) result

val of_engine_error : Sim.Engine.error -> string -> failure

(** Kernel convergence failures are worth re-attempting with another
    strategy; bad injections, budget trips and crashes are not. *)
val retryable : failure -> bool

(** Failures after which the shared session must be rebuilt before the
    next fault (quarantine) - everything except {!Bad_injection}, which
    raises before any device is patched. *)
val poisons_session : failure -> bool

(** One rung of the retry ladder.  Numeric strategies carry a factor
    applied to the baseline config: [Cut_tstep f] multiplies the initial
    timestep by [f] (< 1), [Raise_gmin f] multiplies gmin, and
    [Relax_reltol f] multiplies reltol. *)
type strategy =
  | Baseline
  | Swap_model  (** source model <-> resistor model *)
  | Cut_tstep of float
  | Raise_gmin of float
  | Relax_reltol of float

(** ["baseline"], ["swap-model"], ["cut-tstep=0.1"], ... *)
val strategy_to_string : strategy -> string

(** Inverse of {!strategy_to_string}; the numeric argument may be
    omitted (["cut-tstep"] = 0.1, ["raise-gmin"] = 1e3,
    ["relax-reltol"] = 10). *)
val strategy_of_string : string -> (strategy, string) result

(** An attempt as it was actually run; [failure = None] means the
    attempt succeeded (it is the winning strategy). *)
type attempt = { strategy : strategy; failure : failure option }

type outcome = Detected of float | Undetected | Sim_failed of failure

type fault_result = {
  fault : Faults.Fault.t;
  outcome : outcome;
  attempts : attempt list;
      (** the ladder in execution order; empty when nothing was
          simulated (journal-restored pre-taxonomy entries, crashes
          outside the ladder) *)
  stats : Sim.Engine.stats;  (** counters of the winning attempt *)
  cpu_seconds : float;
}

val outcome_to_string : outcome -> string

(** {1 Journal codec}

    One JSON object per result.  [Float] fields print with [%.17g], so
    detection times and CPU seconds survive a journal round-trip
    bit-for-bit. *)

val result_to_json : index:int -> fault_result -> Obs.Json.t

(** [result_of_json ~faults json] rebuilds a result against the
    campaign's fault array; fails when the index is out of range or the
    stored fault id does not match [faults.(index)]. *)
val result_of_json :
  faults:Faults.Fault.t array -> Obs.Json.t -> (int * fault_result, string) result
