(** Tolerance-based fault detection (the comparison phase of AnaFAULT's
    post-processing).

    A fault is detected at observation instant [t] when the faulty and
    nominal responses have diverged by more than the amplitude tolerance
    [tol_v] continuously over the whole preceding time-tolerance window
    [t - tol_t, t] - either as raw waveforms (stuck levels, large shifts)
    or after [tol_t]-wide moving-average smoothing (frequency changes
    whose raw waveforms keep crossing but whose local means differ).
    Level shifts below [tol_v] and phase wobble well below [tol_t] count
    as process variation, not faults.  A full window is required, so
    nothing is detected before [tol_t] - the flat start of the paper's
    Fig. 5 plot.  One exception at the other end: a divergence run still
    open when the observation window ends, and already at least half a
    window long, is flushed as a detection at the last sample, so a
    fault that diverges shortly before tstop is not silently lost to
    window truncation (the half-window floor keeps the last sliver of
    tolerated phase wobble from being promoted).  The tolerance pair is the
    one the paper's caption quotes: "2V for the amplitude and 0.2 us for
    the time". *)

type tolerance = { tol_v : float; tol_t : float }

(** The paper's working point: 2 V / 0.2 us. *)
val paper_tolerance : tolerance

(** Prefix-decidable detection, the campaign loop's one comparison:
    faulty samples on the nominal grid are fed one at a time as the
    fault's transient steps ({!Simulate.run_chunk} feeds it through an
    engine probe), and the verdict becomes final the moment it can no
    longer change - for most detected faults well before tstop, which is
    what lets a fault's transient stop early.  The tail flush only ever
    fires at the last grid index, so it never produces a premature
    [Detected].  Threshold tests are silently false on NaN, so a caller
    must keep non-finite samples out ({!Simulate.detector} turns one into
    a typed failure). *)
module Incremental : sig
  type t

  type verdict =
    | Pending  (** not decidable yet - keep feeding *)
    | Detected of int  (** final: first detection at this grid index *)
    | Clear  (** final (only at end of grid): never detected *)

  (** [create ~tolerance ~times ~nom] starts a detector against the
      nominal response [nom] sampled at [times] (the shared grid).
      Degenerate inputs come back as [Error] instead of an exception: a
      grid of fewer than two samples, a non-increasing grid ([dt <= 0]),
      a length mismatch or a non-finite nominal sample. *)
  val create :
    tolerance:tolerance ->
    times:float array ->
    nom:float array ->
    (t, string) result

  (** Feed the faulty sample at the next grid index; returns the
      (possibly now-final) verdict.  Raises [Invalid_argument] when fed
      past the end of the grid or after the verdict became final. *)
  val feed : t -> float -> verdict

  val verdict : t -> verdict
end
