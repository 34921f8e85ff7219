(** Whole-waveform detection: the test suite's reference oracle for the
    campaign loop, which judges each fault attempt by a
    {!Anafault.Detect.Incremental} detector fed while the run steps.
    This oracle instead samples a finished faulty waveform on the nominal
    grid and folds it through one detector, so a property can compare
    the in-run verdict with a comparison made after the fact. *)

(** [analyse ~tolerance ~signal ~nominal ~faulty] is the earliest
    nominal-grid sample time at which the fault is visible, if any.
    Degenerate inputs are typed failures: a nominal waveform with fewer
    than two samples, a non-increasing nominal time grid ([dt <= 0]), an
    empty faulty waveform or a non-finite sample on either side comes
    back as [Error].  A missing [signal] raises [Not_found]. *)
val analyse :
  tolerance:Anafault.Detect.tolerance ->
  signal:string ->
  nominal:Sim.Waveform.t ->
  faulty:Sim.Waveform.t ->
  (float option, string) result

(** {!analyse} for callers that treat a degenerate input as a
    programming error: [Error msg] raises [Invalid_argument]. *)
val first_detection :
  tolerance:Anafault.Detect.tolerance ->
  signal:string ->
  nominal:Sim.Waveform.t ->
  faulty:Sim.Waveform.t ->
  float option
