(** The anafaultd campaign server: a resident engine that accepts
    campaign jobs over a Unix-domain socket ({!Protocol}), runs them
    through the shared {!Anafault.Campaign} machinery, and answers
    repeat submissions from a content-addressed result cache
    ({!Cache}, keyed on the campaign fingerprint).

    Structure: one accept loop, one connection-handler thread per
    client, one scheduler thread draining a FIFO job queue.  Identical
    in-flight submissions coalesce - a second client submitting the
    fingerprint currently queued or running subscribes to the same job
    instead of enqueuing a duplicate.  Every job's telemetry is scoped
    with a [job] attribute carrying its fingerprint ({!Obs.tagged}).

    Every job runs one way: {!Anafault.Campaign.run_local} in this
    process, on the spec's own [domains] ({!Anafault.Parsim}).

    Crash-safety: every accepted job is recorded in a write-ahead
    queue journal ([<work_dir>/queue.wal], {!Queue}) {e before} the
    client hears "accepted", and the campaign itself journals to
    [<work_dir>/<fingerprint>.journal].  A daemon killed -9 therefore
    restarts into the same queue: pending jobs re-enqueue, the one
    that was running resumes from its campaign journal, and finished
    results wait in the cache for the resubmitting client.  This
    restart path is the daemon's crash isolation (DESIGN.md, "Crash
    isolation").

    Fault extraction is a first-class job kind: an [extract] request
    runs LIFT ({!Defects.Pipeline}) on an inline layout, answers with
    the ranked fault list, and content-addresses the result in the
    same cache under a ["lift-"] fingerprint - with the pipeline's
    stage artefacts kept under [<work_dir>/lift-stages], so an edited
    layout re-extracts only its dirty tiles.  An [extract] carrying a
    [simulate] spec chains straight into the submit path with the
    extracted faults: extract-then-simulate in one round trip.

    Backpressure: with [queue_limit] set, a submission past the bound
    answers with a typed [queue_full] rejection; with [client_quota]
    set, each client (the [client] string of the submit request) is
    capped at that many queued-or-running jobs, beyond which it gets
    [quota_exceeded].  Coalescing submissions are never rejected.

    Cancellation: a [cancel] request (or an expired deadline, or a job
    orphaned by its last subscriber vanishing for longer than [grace])
    fires the job's cooperative cancel token.  The engine's Newton
    loop polls the token, so a running job stops within milliseconds.
    Everything journalled before the stop is salvaged; the job terminates with a ["cancelled"] event, is
    never cached, and its WAL record is tombstoned at the moment the
    cancel is acknowledged - an identical resubmission re-simulates
    exactly the faults the stop interrupted.  Deadlines: a submit's
    [deadline_s] is capped by the server-wide [job_deadline] and
    enforced from acceptance, for queued and running jobs alike. *)

type config = {
  socket_path : string;  (** Unix-domain socket to listen on *)
  work_dir : string;  (** journals, queue WAL, default cache *)
  cache_dir : string option;  (** result cache root; [None]: work_dir/cache *)
  cache_budget : int;  (** cache byte budget; 0 = unbounded ({!Cache}) *)
  queue_limit : int;
      (** max queued-or-running jobs before [queue_full]; 0 = unbounded *)
  client_quota : int;
      (** max queued-or-running jobs per client before [quota_exceeded];
          0 = unbounded *)
  lift_domains : int;
      (** worker domains for the per-tile stages of an [extract]
          request's staged LIFT pipeline; 1 = serial *)
  job_deadline : float option;
      (** server-side cap (seconds) on any job's wall clock, measured
          from acceptance; tightens - never loosens - a submit's own
          [deadline_s].  [None]: no cap *)
  grace : float;
      (** seconds an orphaned job may outlive its last subscriber *)
  obs : Obs.sink;  (** daemon telemetry (per-job scoped via {!Obs.tagged}) *)
  verbose : bool;  (** log accepts, jobs and cache traffic to stderr *)
}

(** Unbounded queue, quota and cache; serial LIFT stages; no job
    deadline; a 2 s grace. *)
val default_config : socket_path:string -> work_dir:string -> config

(** [run config] binds the socket, replays the queue WAL, and serves
    until a client sends a [shutdown] request.  Returns [Error] when
    the socket cannot be bound or the work directory, cache or WAL
    cannot be opened.  SIGPIPE is ignored for the lifetime of the call
    (clients may vanish mid-stream).  Malformed requests answer with
    typed ["failed"] events; they never end the serve loop. *)
val run : config -> (unit, string) result
