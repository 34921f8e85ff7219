type tolerance = { tol_v : float; tol_t : float }

let paper_tolerance = { tol_v = 2.0; tol_t = 0.2e-6 }

(* Detection works on the two responses sampled over the nominal time
   grid.  A fault is detected at grid instant [t] when either

   - the raw responses have differed by more than [tol_v] continuously
     for the whole preceding time tolerance (stuck levels, large shifts:
     a genuine, persistent discrepancy), or
   - the tol_t-wide moving averages have: an oscillation whose frequency
     changes so much that the raw signals keep crossing still carries a
     persistently different local mean.

   Both criteria need a full window, so nothing can be detected before
   [tol_t] - the flat start of the paper's Fig. 5 plot.  Phase wobble
   well inside the time tolerance moves neither criterion: the raw
   divergence collapses at each crossing and the local means stay
   close.

   There is one algorithm, [Incremental]: faulty samples arrive one grid
   point at a time and the verdict is final the moment it can no longer
   change.  The campaign loop feeds it as a fault's transient steps, and
   its verdict is the fault attempt's outcome. *)

(* A divergence run still open when the data ends is flushed as a
   detection at the last index, provided it has already persisted for
   at least half the window: divergence that starts within [tol_t] of
   tstop persists to the end of the observation window, and truncating
   the window must not hide it.  The half-window floor keeps the flush
   from promoting the last sliver of tolerated phase wobble (a few
   diverging samples around the final edge) into a spurious
   detection. *)
let flush_run ~k run = run >= max 1 ((k + 1) / 2)

module Incremental = struct
  type verdict = Pending | Detected of int | Clear

  type t = {
    tol_v : float;
    k : int;
    half : int;
    n : int;
    nom : float array;
    nom_prefix : float array;
    flt_prefix : float array;
    mutable fed : int;
    mutable raw_run : int;
    mutable raw_first : int option;
    mutable smooth_next : int;  (* first smooth index not yet evaluated *)
    mutable smooth_run : int;
    mutable smooth_first : int option;
    mutable decided : verdict;
  }

  let create ~tolerance ~times ~nom =
    let n = Array.length times in
    if n < 2 then Error "nominal waveform too short (need at least 2 samples)"
    else if Array.length nom <> n then
      Error "times/samples length mismatch"
    else begin
      let dt = (times.(n - 1) -. times.(0)) /. float_of_int (n - 1) in
      if dt <= 0.0 then Error "nominal time grid is degenerate (dt <= 0)"
      else if not (Array.for_all Float.is_finite nom) then
        Error "nominal response contains non-finite samples"
      else begin
        let k = max 1 (int_of_float (Float.round (tolerance.tol_t /. dt))) in
        let nom_prefix = Array.make (n + 1) 0.0 in
        for i = 0 to n - 1 do
          nom_prefix.(i + 1) <- nom_prefix.(i) +. nom.(i)
        done;
        Ok
          {
            tol_v = tolerance.tol_v;
            k;
            half = k / 2;
            n;
            nom;
            nom_prefix;
            flt_prefix = Array.make (n + 1) 0.0;
            fed = 0;
            raw_run = 0;
            raw_first = None;
            smooth_next = 0;
            smooth_run = 0;
            smooth_first = None;
            decided = Pending;
          }
      end
    end

  let verdict st = st.decided

  (* The tol_t-wide moving average at [j], its window clamped at both
     grid edges. *)
  let avg prefix ~n ~half j =
    let lo = max 0 (j - half) and hi = min (n - 1) (j + half) in
    (prefix.(hi + 1) -. prefix.(lo)) /. float_of_int (hi + 1 - lo)

  let feed st x =
    (match st.decided with
    | Detected _ | Clear -> invalid_arg "Detect.Incremental.feed: already decided"
    | Pending -> ());
    if st.fed >= st.n then invalid_arg "Detect.Incremental.feed: grid exhausted";
    let g = st.fed in
    st.flt_prefix.(g + 1) <- st.flt_prefix.(g) +. x;
    st.fed <- g + 1;
    (* Raw criterion at index g: a run of [k + 1] diverging samples
       fires; the scan stops at its first fire. *)
    if st.raw_first = None then begin
      st.raw_run <-
        (if Float.abs (st.nom.(g) -. x) > st.tol_v then st.raw_run + 1 else 0);
      if st.raw_run >= st.k + 1 then st.raw_first <- Some g
    end;
    (* Smooth criterion: an index is evaluable once its (edge-clamped)
       centered window is entirely fed - it trails the raw scan by
       [half] samples. *)
    while
      st.smooth_first = None
      && st.smooth_next < st.n
      && min (st.n - 1) (st.smooth_next + st.half) <= st.fed - 1
    do
      let j = st.smooth_next in
      let d =
        Float.abs
          (avg st.nom_prefix ~n:st.n ~half:st.half j
          -. avg st.flt_prefix ~n:st.n ~half:st.half j)
      in
      st.smooth_run <- (if d > st.tol_v then st.smooth_run + 1 else 0);
      if st.smooth_run >= st.k + 1 then st.smooth_first <- Some j
      else st.smooth_next <- j + 1
    done;
    (* Finality: the combined verdict is min(raw, smooth); it is decided
       early when one criterion fired at [d] and the other has scanned
       past [d] without firing (it can only fire later, so the min is
       fixed). *)
    (match (st.raw_first, st.smooth_first) with
    | Some a, Some b -> st.decided <- Detected (min a b)
    | Some a, None when st.smooth_next > a -> st.decided <- Detected a
    | None, Some b ->
      (* the raw scan has covered every index <= fed-1 >= b unfired *)
      st.decided <- Detected b
    | (Some _ | None), _ -> ());
    if st.decided = Pending && st.fed = st.n then begin
      (* End of grid: flush still-open runs to the last index. *)
      let flush first run =
        match first with
        | Some _ as r -> r
        | None -> if flush_run ~k:st.k run then Some (st.n - 1) else None
      in
      match (flush st.raw_first st.raw_run, flush st.smooth_first st.smooth_run) with
      | Some a, Some b -> st.decided <- Detected (min a b)
      | (Some a, None | None, Some a) -> st.decided <- Detected a
      | None, None -> st.decided <- Clear
    end;
    st.decided
end
