(* The shape every workload shares: its parameters, the metrics it
   reports, output checks, and the phase order of an in-process run. *)

type size = Full | Tiny

type params = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  trace : bool;  (** also make the traced run that gives per-layer metrics *)
  size : size;  (** [Tiny] is the smoke-test scale *)
  work_dir : string;  (** scratch space, removed afterwards *)
}

type metric = { name : string; unit : string; value : float; samples : float list }

let metric ?(samples = []) name unit value = { name; unit; value; samples }

let count name n = metric name "count" (float_of_int n)

(* What a workload run returns. *)
type outcome = {
  setup : float list;  (** seconds per set-up *)
  latencies : (string * float) list;
      (** seconds per timed operation, tagged with the operation's kind *)
  latency_kinds : string list;
      (** the kinds the end-to-end latency median covers; [] = all *)
  work : float;  (** work items the timed operations completed *)
  elapsed : float;  (** seconds spent in the timed operations *)
  rss_mb : float;  (** peak RSS after the timed phase *)
  layers : metric list;  (** per-layer block (traced runs only) *)
  events : Obs.event list;  (** the traced run's trace *)
  attempted : int;
  failed : int;
}

(* Output checks: every checked operation counts as attempted, every
   mismatch or failure as failed. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let check c what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "perf: check failed: %s\n%!" what
  end

(* Run [op] back to back, at least [min] times, while the next run is
   expected to end within [seconds]; return the results in order. *)
let repeat ~seconds ~min op =
  let t0 = Util.now () in
  let rec go acc n =
    let spent = Util.now () -. t0 in
    let per_op = if n = 0 then 0.0 else spent /. float_of_int n in
    if n >= min && spent +. per_op > seconds then List.rev acc
    else go (op () :: acc) (n + 1)
  in
  go [] 0

(* Time a few set-ups - five, or fewer once a fifth of a second is
   spent - and push the durations onto [samples].  Workloads call this
   at several points of a run, so a burst of machine noise, which lasts
   about a second, slows only some of the samples the median is taken
   over.  [after] undoes one set-up, untimed. *)
let setups ?(after = ignore) samples f =
  let rec go n spent =
    if n < 5 && (n = 0 || spent < 0.2) then begin
      let r, dt = Util.time f in
      samples := dt :: !samples;
      after r;
      go (n + 1) (spent +. dt)
    end
  in
  go 0 0.0

(* The set-up, warm-up, timed repeats, traced run order of an
   in-process workload, with set-ups timed before the warm-up and
   before every timed repeat.  [op] is one untraced operation returning
   its tagged latencies and work items; [traced] is the same operation
   under a memory sink, returning per-layer metrics, its wall time and
   its events.  The traced run comes last so neither the peak RSS nor
   the untraced latencies include the trace buffer. *)
let in_process p ~setup ~op ~traced =
  let setup_s = ref [] in
  setups setup_s setup;
  ignore (op ());
  let runs =
    repeat ~seconds:p.seconds ~min:(if p.size = Tiny then 1 else 3) (fun () ->
        setups setup_s setup;
        op ())
  in
  let latencies = List.concat_map fst runs in
  let work = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 runs in
  let elapsed = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 latencies in
  let rss_mb = Util.peak_rss_mb "self" in
  let layers, events =
    if not p.trace then ([], [])
    else begin
      let layers, traced_s, events = traced () in
      let per_op = elapsed /. float_of_int (List.length runs) in
      ( metric "trace.overhead_frac" "fraction" ((traced_s /. per_op) -. 1.0) :: layers,
        events )
    end
  in
  {
    setup = List.rev !setup_s;
    latencies;
    latency_kinds = [];
    work;
    elapsed;
    rss_mb;
    layers;
    events;
    attempted = 0;
    failed = 0;
  }

(* Median of the latencies of one kind. *)
let kind_median latencies kind =
  Stats.median (List.filter_map (fun (k, t) -> if k = kind then Some t else None) latencies)

(* {1 Folding a trace} *)

let summary events = Obs.Summary.of_events events

let span_total (s : Obs.Summary.t) name =
  match List.assoc_opt name s.spans with Some st -> st.total | None -> 0.0

let span_mean (s : Obs.Summary.t) name =
  match List.assoc_opt name s.spans with Some st -> st.mean | None -> 0.0

let counter (s : Obs.Summary.t) name =
  Option.value (List.assoc_opt name s.counters) ~default:0

let sample_total (s : Obs.Summary.t) name =
  match List.assoc_opt name s.samples with Some st -> st.total | None -> 0.0

let sample_mean (s : Obs.Summary.t) name =
  match List.assoc_opt name s.samples with Some st -> st.mean | None -> 0.0

(* MB allocated between two GC snapshots. *)
let alloc_mb (g0 : Gc.stat) (g1 : Gc.stat) =
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  (words g1 -. words g0) *. float_of_int (Sys.word_size / 8) /. 1e6

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* {1 End-to-end metrics} *)

let end_to_end o =
  let ms =
    List.filter_map
      (fun (k, t) ->
        if o.latency_kinds = [] || List.mem k o.latency_kinds then Some (1000.0 *. t) else None)
      o.latencies
  in
  [
    metric "setup_s" "s" (Stats.median o.setup) ~samples:o.setup;
    metric "throughput_per_s" "1/s" (o.work /. o.elapsed);
    metric "latency_p50_ms" "ms" (Stats.median ms) ~samples:ms;
    metric "peak_rss_mb" "MB" o.rss_mb;
  ]
