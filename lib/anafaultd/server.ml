(* The resident campaign server.  Threads, not domains, carry the
   service structure (connection handlers block on sockets; the
   simulation itself spawns domains through Parsim underneath the
   scheduler thread):

     accept loop ──▶ handler thread per connection
                        │  submit: fingerprint, cache probe, admission
                        ▼
                    job queue ──▶ scheduler thread
                    (WAL-backed)    │ Campaign.run_local (Parsim domains)
                                    ▼
                                 broadcast events, store cache entry

   Identical in-flight submissions coalesce: the second client
   subscribes to the running job instead of enqueuing a duplicate, so
   repeated work is deduped even before it reaches the cache.

   Every accepted job is journalled to a write-ahead queue (Queue)
   before the client hears "accepted", so a daemon killed -9 replays
   its queue at the next start and finishes the work with no client
   attached - the results land in the cache, where the resubmitting
   client finds them.  Admission is bounded: a full queue or an
   exhausted per-client quota answers with a typed rejection instead
   of unbounded buffering. *)

module Campaign = Anafault.Campaign
module Journal = Anafault.Journal
module J = Obs.Json

type config = {
  socket_path : string;
  work_dir : string;
  cache_dir : string option;
  cache_budget : int;
  queue_limit : int;
  client_quota : int;
  lift_domains : int;
      (* worker domains for the per-tile stages of an Extract request's
         staged LIFT pipeline; 1 = serial *)
  job_deadline : float option;
      (* server-side cap on any job's wall clock, from acceptance;
         tightens (never loosens) a submit's own deadline_s *)
  grace : float;
      (* seconds: how long an orphaned job may outlive its last
         subscriber *)
  obs : Obs.sink;
  verbose : bool;
}

let default_config ~socket_path ~work_dir =
  {
    socket_path;
    work_dir;
    cache_dir = None;
    cache_budget = 0;
    queue_limit = 0;
    client_quota = 0;
    lift_domains = 1;
    job_deadline = None;
    grace = 2.0;
    obs = Obs.null;
    verbose = false;
  }

(* One client connection; the write lock serialises the handler's own
   acknowledgements with the scheduler's event broadcasts. *)
type sub = { sout : out_channel; swrite : Mutex.t }

(* Where a job is in its lifecycle (DESIGN.md, "Job lifecycle and
   cancellation").  Only the scheduler thread moves it, under [jlock];
   [Done] is set by [conclude] once the terminal event went out. *)
type state = Queued | Running | Done

type job = {
  compiled : Campaign.compiled;
  client : string; (* quota bucket; "" = anonymous *)
  token : Cancel.t; (* also threaded into [compiled]'s engine options *)
  deadline_at : float option; (* absolute wall clock; monitor enforces *)
  deadline_total : float; (* the budget behind [deadline_at], for the reason *)
  replayed : bool; (* WAL replays have no subscribers by design *)
  jlock : Mutex.t;
  jcond : Condition.t;
  mutable subs : sub list;
  mutable orphaned_at : float option; (* monitor-private: subs first seen [] *)
  mutable state : state;
}

(* Every counted event: its key in the [stats] reply ("" = telemetry
   only) and the Obs counter [bump] emits with it ("" = stats only). *)
type stat =
  | Jobs
  | Cache_hits
  | Coalesced
  | Faults_simulated
  | Rejected
  | Replayed
  | Cancelled
  | Extracts
  | Extract_hits
  | Jobs_done
  | Jobs_failed

let stat_names = function
  | Jobs -> ("jobs", "")
  | Cache_hits -> ("cache_hits", "daemon.cache_hit")
  | Coalesced -> ("coalesced", "daemon.coalesced")
  | Faults_simulated -> ("faults_simulated", "")
  | Rejected -> ("rejected", "daemon.rejected")
  | Replayed -> ("replayed", "daemon.replayed")
  | Cancelled -> ("cancelled", "daemon.jobs_cancelled")
  | Extracts -> ("extracts", "")
  | Extract_hits -> ("extract_hits", "daemon.extract_hit")
  | Jobs_done -> ("", "daemon.jobs_done")
  | Jobs_failed -> ("", "daemon.jobs_failed")

type t = {
  cfg : config;
  cache : Cache.t;
  wal : Queue.t;
  listen_fd : Unix.file_descr;
  queue : job Stdlib.Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  (* fingerprint -> queued-or-running job; entries leave only when the
     job concludes, so late twins always coalesce. *)
  inflight : (string, job) Hashtbl.t;
  (* client -> jobs currently queued or running on its behalf *)
  quota : (string, int) Hashtbl.t;
  mutable stopping : bool;
  counts : (stat * int Atomic.t) list;
}

let log t fmt =
  if t.cfg.verbose then
    Format.kfprintf
      (fun ppf -> Format.fprintf ppf "@.")
      Format.err_formatter
      ("anafaultd: " ^^ fmt)
  else Format.ifprintf Format.err_formatter fmt

let bump t ?(attrs = []) fp stat n =
  ignore (Atomic.fetch_and_add (List.assoc stat t.counts) n);
  match snd (stat_names stat) with
  | "" -> ()
  | name -> Obs.count t.cfg.obs name n ~attrs:(("job", Obs.Str fp) :: attrs)

(* The [stats] reply, keys in wire order; evictions and corrupt are the
   cache's own counts. *)
let stats_json t =
  let field s = (fst (stat_names s), J.Int (Atomic.get (List.assoc s t.counts))) in
  J.Obj
    (List.map field
       [ Jobs; Cache_hits; Coalesced; Faults_simulated; Rejected; Replayed ]
    @ [
        ("evictions", J.Int (Cache.evictions t.cache));
        ("corrupt", J.Int (Cache.corrupt t.cache));
      ]
    @ List.map field [ Cancelled; Extracts; Extract_hits ])

(* A cache probe: a stale or torn entry is a miss. *)
let find_cached t fp decode =
  match Option.map decode (Cache.find t.cache fp) with
  | Some (Ok v) -> Some v
  | Some (Error _) | None -> None

(* --- Event fan-out ----------------------------------------------------- *)

let reply sub json = Mutex.protect sub.swrite (fun () -> Protocol.send sub.sout json)

let send_event sub ev = reply sub (Campaign.event_to_json ev)

(* A subscriber whose connection died is dropped; the job carries on
   for the others (and for the cache). *)
let broadcast job ev =
  let json = Campaign.event_to_json ev in
  List.iter
    (fun s ->
      try reply s json
      with _ ->
        Mutex.protect job.jlock (fun () ->
            job.subs <- List.filter (fun s' -> s' != s) job.subs))
    (Mutex.protect job.jlock (fun () -> job.subs))

(* The one terminal transition, called with a [Finished], [Failed] or
   [Cancelled] event by the scheduler thread only, and idempotent
   through [state] (the scheduler's catch-all may follow an [execute]
   that already concluded).  The job retires first - inflight slot,
   quota, WAL record - so a client that reads the terminal event and
   instantly resubmits can never subscribe to a job that has already
   spoken its last event: it hits the cache or starts fresh.  Only
   after the terminal event went out are the handlers parked on
   [jcond] woken. *)
let conclude t job ev =
  let fp = job.compiled.Campaign.fingerprint in
  if Mutex.protect job.jlock (fun () -> job.state <> Done) then begin
    Mutex.protect t.qlock (fun () ->
        (match Hashtbl.find_opt t.inflight fp with
        | Some j when j == job -> Hashtbl.remove t.inflight fp
        | Some _ | None -> ());
        match Hashtbl.find_opt t.quota job.client with
        | Some used when used > 1 -> Hashtbl.replace t.quota job.client (used - 1)
        | Some _ | None -> Hashtbl.remove t.quota job.client);
    Queue.mark_done t.wal fp;
    let stat, what =
      match ev with
      | Campaign.Finished r ->
        (Jobs_done, Printf.sprintf "done (%d results)" r.Campaign.total)
      | Campaign.Cancelled { reason; salvaged; _ } ->
        (Cancelled, Printf.sprintf "cancelled (%s, %d salvaged)" reason salvaged)
      | Campaign.Failed { message } -> (Jobs_failed, "failed: " ^ message)
      | _ -> invalid_arg "Server.conclude: not a terminal event"
    in
    bump t fp stat 1;
    broadcast job ev;
    log t "job %s: %s" fp what;
    Mutex.protect job.jlock (fun () ->
        job.state <- Done;
        Condition.broadcast job.jcond)
  end

(* --- Job execution ----------------------------------------------------- *)

let journal_path t fp = Filename.concat t.cfg.work_dir (fp ^ ".journal")

(* The journal is the persistence layer: a daemon killed mid-campaign
   resumes its own partial work on resubmission.  A corrupt or
   mismatched journal is discarded, not fatal. *)
let open_journal t fp faults =
  let path = journal_path t fp in
  match Journal.start ~path ~fingerprint:fp ~resume:true ~faults with
  | Ok j -> Ok j
  | Error _ -> begin
    (try Sys.remove path with Sys_error _ -> ());
    Journal.start ~path ~fingerprint:fp ~resume:false ~faults
  end

let progress_of job total =
  (* Stream at most ~50 progress events per job, always including the
     final one. *)
  let step = max 1 (total / 50) in
  fun completed t ->
    if completed = t || completed mod step = 0 then
      broadcast job (Campaign.Progress { completed; total = t })

(* Results that are not Cancelled stand-ins: what the campaign completed
   (restored or simulated) before any stop cut it short. *)
let salvaged (result : Campaign.result) =
  List.length
    (List.filter
       (fun (r : Anafault.Outcome.fault_result) ->
         match r.Anafault.Outcome.outcome with
         | Anafault.Outcome.Sim_failed (Anafault.Outcome.Cancelled _) -> false
         | _ -> true)
       result.Campaign.results)

let run_in_process t job =
  let compiled = job.compiled in
  let fp = compiled.Campaign.fingerprint in
  let faults = Array.of_list compiled.Campaign.faults in
  let total = Array.length faults in
  match open_journal t fp faults with
  | Error msg -> Error ("journal: " ^ msg)
  | Ok journal ->
    Fun.protect ~finally:(fun () -> Journal.close journal) @@ fun () ->
    (match
       Campaign.run_local ~progress:(progress_of job total) ~journal compiled
     with
    | exception Sim.Engine.Sim_error (err, detail) ->
      Error
        (Printf.sprintf "nominal simulation failed (%s): %s"
           (Sim.Engine.error_to_string err) detail)
    | { Campaign.result; _ } ->
      (* Count only what actually simulated this life: restored results
         were a previous life's work. *)
      bump t fp Faults_simulated
        (max 0 (salvaged result - Journal.restored_count journal));
      Ok result)

let execute t job =
  let fp = job.compiled.Campaign.fingerprint in
  let total = List.length job.compiled.Campaign.faults in
  log t "job %s: %d faults" fp total;
  Obs.span t.cfg.obs "daemon.job"
    ~attrs:[ ("job", Obs.Str fp); ("faults", Obs.Int total) ]
  @@ fun _ ->
  Obs.Failpoint.hit "job.run";
  let outcome =
    (* Cancelled while still queued: nothing runs this life, so nothing
       new is salvaged (an earlier life's journal survives untouched). *)
    if Cancel.cancelled job.token then Error "cancelled while queued"
    else run_in_process t job
  in
  conclude t job
    (match (Cancel.get job.token, outcome) with
    | Some reason, _ ->
      (* Never cached, so the identical resubmission a client sends next
         misses the cache and resumes the campaign journal. *)
      Campaign.Cancelled
        {
          fingerprint = fp;
          reason = Cancel.reason_to_string reason;
          salvaged = (match outcome with Ok r -> salvaged r | Error _ -> 0);
        }
    | None, Ok result ->
      (* Stored before [conclude] retires the job, so a resubmitter
         finds it. *)
      Cache.store t.cache fp (Campaign.result_to_json result);
      Campaign.Finished result
    | None, Error message -> Campaign.Failed { message })

let scheduler t =
  let rec loop () =
    let next =
      Mutex.protect t.qlock @@ fun () ->
      let rec wait () =
        if not (Stdlib.Queue.is_empty t.queue) then
          Some (Stdlib.Queue.pop t.queue)
        else if t.stopping then None
        else begin
          Condition.wait t.qcond t.qlock;
          wait ()
        end
      in
      wait ()
    in
    match next with
    | None -> ()
    | Some job ->
      Mutex.protect job.jlock (fun () -> job.state <- Running);
      (try execute t job
       with e ->
         conclude t job
           (Campaign.Failed { message = "daemon: " ^ Printexc.to_string e }));
      loop ()
  in
  loop ()

(* --- Connection handling ----------------------------------------------- *)

(* A cancel request: fire the token and tombstone the WAL record right
   away, so a daemon killed -9 between acknowledging the cancel and the
   job actually stopping does not resurrect the job at its next start.
   [conclude]'s own [mark_done] later is a no-op on the dead entry. *)
let handle_cancel t fingerprint =
  match
    Mutex.protect t.qlock (fun () -> Hashtbl.find_opt t.inflight fingerprint)
  with
  | None -> false
  | Some job ->
    Cancel.cancel job.token Cancel.User_cancel;
    Queue.mark_done t.wal fingerprint;
    (* Fires once the tombstone is durable: a crash here must NOT
       resurrect the job at the next start. *)
    Obs.Failpoint.hit "cancel.tombstone";
    log t "job %s: cancel requested" fingerprint;
    true

(* Deadline and orphan enforcement.  The tick only reads job state and
   fires cancel tokens; the scheduler and the engine's Newton loop
   notice the token at their next poll.
   Orphanhood is observed through broadcast failures (a dead subscriber
   is dropped by the first write that fails), so a vanished client is
   detected once events flow; WAL-replayed jobs have no subscribers by
   design and are exempt.  A job whose campaign was submitted by
   several coalesced clients stays alive while any of them remains. *)
let monitor t =
  let rec loop () =
    if not (Mutex.protect t.qlock (fun () -> t.stopping)) then begin
      let now = Unix.gettimeofday () in
      let jobs =
        Mutex.protect t.qlock (fun () ->
            Hashtbl.fold (fun _ j acc -> j :: acc) t.inflight [])
      in
      List.iter
        (fun job ->
          (match job.deadline_at with
          | Some at when now > at ->
            Cancel.cancel job.token (Cancel.Deadline job.deadline_total)
          | Some _ | None -> ());
          if not job.replayed then begin
            let orphaned =
              Mutex.protect job.jlock (fun () ->
                  job.subs = [] && job.state <> Done)
            in
            if not orphaned then job.orphaned_at <- None
            else begin
              match job.orphaned_at with
              | None -> job.orphaned_at <- Some now
              | Some since when now -. since > t.cfg.grace ->
                Cancel.cancel job.token Cancel.Client_gone
              | Some _ -> ()
            end
          end)
        jobs;
      Thread.delay 0.1;
      loop ()
    end
  in
  loop ()

(* Admission and WAL replay build their jobs here: the telemetry is
   scoped with the fingerprint, a fresh cancel token is threaded into
   the engine, and the wall-clock budget - the tighter of the submit's
   own [deadline_s] and the server's cap - runs from now.  A job with
   no first subscriber is a WAL replay. *)
let new_job t ?sub ~client ~deadline_s (compiled : Campaign.compiled) =
  let obs = Obs.tagged t.cfg.obs [ ("job", Obs.Str compiled.Campaign.fingerprint) ] in
  let compiled =
    {
      compiled with
      Campaign.config = { compiled.Campaign.config with Anafault.Simulate.obs };
    }
  in
  let token = Cancel.create () in
  let budget =
    match (deadline_s, t.cfg.job_deadline) with
    | Some a, Some b -> Some (Float.min a b)
    | d, None | None, d -> d
  in
  {
    compiled = Campaign.with_cancel compiled token;
    client;
    token;
    deadline_at = Option.map (fun d -> Unix.gettimeofday () +. d) budget;
    deadline_total = Option.value budget ~default:0.0;
    replayed = Option.is_none sub;
    jlock = Mutex.create ();
    jcond = Condition.create ();
    subs = Option.to_list sub;
    orphaned_at = None;
    state = Queued;
  }

let quota_used t client = Option.value (Hashtbl.find_opt t.quota client) ~default:0

(* Admission proper, under [qlock]: the job becomes visible to its twins,
   charges its client's quota and joins the FIFO. *)
let enqueue t job =
  let fp = job.compiled.Campaign.fingerprint in
  Hashtbl.replace t.inflight fp job;
  Hashtbl.replace t.quota job.client (quota_used t job.client + 1);
  Stdlib.Queue.push job t.queue;
  bump t fp Jobs 1;
  Condition.signal t.qcond

(* What admission decided; computed under qlock, answered outside it. *)
type admitted =
  | Stopping
  | Turned_away of Protocol.reject_reason * string
  | Admitted of job (* subscribed: wait for its events *)

let handle_submit t sub spec client deadline_s =
  match Campaign.compile ~obs:t.cfg.obs spec with
  | Error message -> send_event sub (Campaign.Failed { message })
  | Ok compiled -> (
    let fp = compiled.Campaign.fingerprint in
    let faults = Array.of_list compiled.Campaign.faults in
    let total = Array.length faults in
    match find_cached t fp (Campaign.result_of_json ~faults) with
    | Some result ->
      bump t fp Cache_hits 1;
      log t "job %s: cache hit" fp;
      send_event sub (Campaign.Accepted { fingerprint = fp; total });
      send_event sub (Campaign.Cache_hit { fingerprint = fp });
      send_event sub (Campaign.Finished { result with Campaign.cached = true })
    | None -> (
      let client = Option.value client ~default:"" in
      (* Hold this connection's write lock across admission so the
         scheduler cannot slip a job event out before our Accepted
         line - the first thing a submitter reads is its verdict. *)
      let admitted =
        Mutex.protect sub.swrite @@ fun () ->
        let verdict =
          Mutex.protect t.qlock @@ fun () ->
          if t.stopping then Stopping
          else
            match Hashtbl.find_opt t.inflight fp with
            | Some job ->
              (* Same campaign already queued or running: subscribe. *)
              Mutex.protect job.jlock (fun () -> job.subs <- sub :: job.subs);
              bump t fp Coalesced 1;
              Admitted job
            | None -> (
              if t.cfg.queue_limit > 0 && Hashtbl.length t.inflight >= t.cfg.queue_limit
              then
                Turned_away
                  ( Protocol.Queue_full,
                    Printf.sprintf "queue limit %d reached, try again later"
                      t.cfg.queue_limit )
              else if t.cfg.client_quota > 0 && quota_used t client >= t.cfg.client_quota
              then
                Turned_away
                  ( Protocol.Quota_exceeded,
                    Printf.sprintf "client quota %d reached" t.cfg.client_quota )
              else
                match Queue.push t.wal { Queue.fingerprint = fp; client; spec } with
                | Error message ->
                  (* The WAL is the acceptance contract; a submission we
                     cannot make durable is not accepted. *)
                  Turned_away (Protocol.Queue_full, "queue journal: " ^ message)
                | Ok () ->
                  let job = new_job t ~sub ~client ~deadline_s compiled in
                  enqueue t job;
                  Admitted job)
        in
        (match verdict with
        | Stopping ->
          Protocol.send sub.sout
            (Campaign.event_to_json
               (Campaign.Failed { message = "daemon is shutting down" }))
        | Turned_away (reason, message) ->
          let reason_s = Protocol.reject_reason_to_string reason in
          bump t fp Rejected 1 ~attrs:[ ("reason", Obs.Str reason_s) ];
          log t "job %s: rejected (%s)" fp reason_s;
          Protocol.send sub.sout (Protocol.rejected_to_json ~reason ~message)
        | Admitted _ ->
          Protocol.send sub.sout
            (Campaign.event_to_json
               (Campaign.Accepted { fingerprint = fp; total })));
        verdict
      in
      match admitted with
      | Stopping | Turned_away _ -> ()
      | Admitted job ->
        (* Hold the connection until the job concluded; the scheduler
           streams the events. *)
        Mutex.protect job.jlock (fun () ->
            while job.state <> Done do
              Condition.wait job.jcond job.jlock
            done)))

(* An Extract request: LIFT the inline layout through the staged
   pipeline and answer with one "extracted" object.  The fault list is
   content-addressed in the shared result cache under a "lift-"
   fingerprint, so a repeated layout never re-extracts; the pipeline's
   own stage artefacts persist under work_dir/lift-stages, so an
   {e edited} layout re-extracts only its dirty tiles.  Extraction is
   synchronous on the handler thread - pure CPU over bytes the client
   already shipped, no WAL involved.  With [simulate], the
   extracted list replaces the embedded campaign spec's faults field
   and the job flows through the normal submit admission on the same
   connection: extract-then-simulate in one round trip. *)
let handle_extract t sub lift simulate client deadline_s =
  let fp = Protocol.lift_fingerprint lift in
  bump t fp Extracts 1;
  let answer =
    match Option.join (find_cached t fp Protocol.extracted_of_json) with
    | Some e ->
      bump t fp Extract_hits 1;
      log t "extract %s: cache hit" fp;
      Ok { e with Protocol.ex_cached = true }
    | None -> begin
      let tech = Layout.Tech.default in
      match Layout.Cif.of_string ~tech lift.Protocol.layout with
      | exception Layout.Cif.Parse_error (line, msg) ->
        Error (Printf.sprintf "layout line %d: %s" line msg)
      | exception e -> Error (Printexc.to_string e)
      | mask -> begin
        let pdf =
          if lift.Protocol.uniform_pdf then
            Some
              (Geom.Critical_area.Uniform
                 {
                   x_min = float_of_int tech.Layout.Tech.defect_x_min;
                   x_max = float_of_int tech.Layout.Tech.defect_x_max;
                 })
          else None
        in
        let options =
          {
            Defects.Lift.pdf;
            p_min = lift.Protocol.p_min;
            merge_equivalent = lift.Protocol.merge_equivalent;
          }
        in
        let config =
          {
            Defects.Pipeline.tile_nm = lift.Protocol.tile_nm;
            domains = t.cfg.lift_domains;
            cache_dir = Some (Filename.concat t.cfg.work_dir "lift-stages");
            obs = Obs.tagged t.cfg.obs [ ("job", Obs.Str fp) ];
            options;
          }
        in
        match Defects.Pipeline.run ~config mask with
        | exception e -> Error (Printexc.to_string e)
        | { Defects.Pipeline.result; _ } ->
          let classes = result.Defects.Lift.classes in
          let e =
            {
              Protocol.ex_fingerprint = fp;
              ex_cached = false;
              ex_faults =
                Faults.Fault_list.to_string (Defects.Lift.ranked result);
              ex_sites = result.Defects.Lift.sites_considered;
              ex_bridging = classes.Defects.Lift.bridging;
              ex_line_opens = classes.Defects.Lift.line_opens;
              ex_contact_opens = classes.Defects.Lift.contact_opens;
              ex_stuck_opens = classes.Defects.Lift.stuck_opens;
            }
          in
          Cache.store t.cache fp (Protocol.extracted_to_json e);
          log t "extract %s: %d faults" fp
            (Defects.Lift.total classes);
          Ok e
      end
    end
  in
  match answer with
  | Error message ->
    log t "extract %s: failed (%s)" fp message;
    send_event sub (Campaign.Failed { message = "extract: " ^ message })
  | Ok e -> begin
    reply sub (Protocol.extracted_to_json e);
    match simulate with
    | None -> ()
    | Some spec ->
      handle_submit t sub
        { spec with Campaign.faults = e.Protocol.ex_faults }
        client deadline_s
  end

let request_shutdown t =
  Mutex.protect t.qlock (fun () ->
      t.stopping <- true;
      Condition.broadcast t.qcond);
  (* Wake the accept loop: shutting the listening socket down unblocks
     a pending accept on Linux; the throwaway connection covers
     platforms where it does not (closing the fd from another thread
     would NOT interrupt a blocked accept). *)
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path)
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let handle_client t fd =
  let ic = Unix.in_channel_of_descr fd in
  let sub = { sout = Unix.out_channel_of_descr fd; swrite = Mutex.create () } in
  let rec loop () =
    match Protocol.recv ic with
    | Ok None -> ()
    | Error message ->
      (* Malformed or oversized line: answer with a typed failure and
         keep serving - a confused client must not take the session
         (let alone the daemon) down. *)
      send_event sub (Campaign.Failed { message });
      loop ()
    | Ok (Some json) -> begin
      match Protocol.request_of_json json with
      | Error message ->
        send_event sub (Campaign.Failed { message });
        loop ()
      | Ok (Protocol.Submit { spec; client; deadline_s }) ->
        handle_submit t sub spec client deadline_s;
        loop ()
      | Ok (Protocol.Extract { lift; simulate; client; deadline_s }) ->
        handle_extract t sub lift simulate client deadline_s;
        loop ()
      | Ok (Protocol.Cancel { fingerprint }) ->
        let cancelled = handle_cancel t fingerprint in
        reply sub (J.Obj [ ("ok", J.Bool true); ("cancelled", J.Bool cancelled) ]);
        loop ()
      | Ok Protocol.Stats ->
        reply sub (stats_json t);
        loop ()
      | Ok Protocol.Ping ->
        reply sub Protocol.ok;
        loop ()
      | Ok Protocol.Shutdown ->
        reply sub Protocol.ok;
        log t "shutdown requested";
        request_shutdown t
    end
  in
  (try loop () with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- Lifecycle --------------------------------------------------------- *)

let ( let* ) = Result.bind

(* Turn the WAL's surviving entries back into queued jobs.  An entry
   that no longer compiles (or whose fingerprint drifted - a spec codec
   change between daemon versions) is retired as done: it was never
   acknowledged complete, but there is nothing left to run for it.  The
   WAL does not persist a submit's deadline_s; a replayed job is capped
   by the server's own --job-deadline only. *)
let replay_wal t entries =
  List.iter
    (fun (e : Queue.entry) ->
      let fp = e.Queue.fingerprint in
      match Campaign.compile ~obs:t.cfg.obs e.Queue.spec with
      | Error msg ->
        log t "replay %s: dropped (%s)" fp msg;
        Queue.mark_done t.wal fp
      | Ok compiled when not (String.equal compiled.Campaign.fingerprint fp) ->
        log t "replay %s: fingerprint drifted to %s, dropped" fp
          compiled.Campaign.fingerprint;
        Queue.mark_done t.wal fp
      | Ok compiled ->
        let job =
          new_job t ~client:e.Queue.client ~deadline_s:None compiled
        in
        Mutex.protect t.qlock (fun () -> enqueue t job);
        bump t fp Replayed 1;
        log t "replay %s: re-enqueued (%d faults)" fp
          (List.length compiled.Campaign.faults))
    entries

let run cfg =
  let* () = Durable.ensure_dir cfg.work_dir in
  let cache_dir =
    Option.value cfg.cache_dir ~default:(Filename.concat cfg.work_dir "cache")
  in
  let* cache =
    Cache.create ~budget_bytes:cfg.cache_budget ~obs:cfg.obs ~dir:cache_dir ()
  in
  let* wal, pending = Queue.open_ ~path:(Filename.concat cfg.work_dir "queue.wal") in
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path) with
  | exception Unix.Unix_error (err, _, _) ->
    Unix.close listen_fd;
    Queue.close wal;
    Error (cfg.socket_path ^ ": " ^ Unix.error_message err)
  | () ->
    Unix.listen listen_fd 16;
    let previous_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let t =
      {
        cfg;
        cache;
        wal;
        listen_fd;
        queue = Stdlib.Queue.create ();
        qlock = Mutex.create ();
        qcond = Condition.create ();
        inflight = Hashtbl.create 8;
        quota = Hashtbl.create 8;
        stopping = false;
        counts =
          List.map
            (fun s -> (s, Atomic.make 0))
            [ Jobs; Cache_hits; Coalesced; Faults_simulated; Rejected; Replayed;
              Cancelled; Extracts; Extract_hits; Jobs_done; Jobs_failed ];
      }
    in
    log t "listening on %s (cache %s)" cfg.socket_path cache_dir;
    (* Re-enqueue what a previous life left queued or running, before
       any client connects: replayed work and fresh work share one
       FIFO. *)
    replay_wal t pending;
    let scheduler_thread = Thread.create scheduler t in
    let monitor_thread = Thread.create monitor t in
    let handlers = ref [] in
    (* The accept loop must only end on a requested shutdown: any
       transient errno - a signal (EINTR), a client that gave up mid
       handshake (ECONNABORTED), descriptor exhaustion while handlers
       are still draining (EMFILE/ENFILE) - is retried, the latter
       after a short breath so connections can close. *)
    let rec accept_loop () =
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        log t "accept: out of file descriptors, backing off";
        Thread.delay 0.05;
        accept_loop ()
      | exception Unix.Unix_error (err, _, _) ->
        if Mutex.protect t.qlock (fun () -> t.stopping) then () (* shut down *)
        else begin
          log t "accept: %s, retrying" (Unix.error_message err);
          Thread.delay 0.05;
          accept_loop ()
        end
      | fd, _ ->
        if Mutex.protect t.qlock (fun () -> t.stopping) then
          (* The wake-up connection of request_shutdown, or a client
             racing the shutdown: refuse it. *)
          try Unix.close fd with Unix.Unix_error _ -> ()
        else begin
          handlers := Thread.create (handle_client t) fd :: !handlers;
          accept_loop ()
        end
    in
    accept_loop ();
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Drain: no new connections arrive; finish what is queued. *)
    List.iter Thread.join !handlers;
    Mutex.protect t.qlock (fun () ->
        t.stopping <- true;
        Condition.broadcast t.qcond);
    Thread.join scheduler_thread;
    Thread.join monitor_thread;
    Queue.close t.wal;
    (try Sys.remove cfg.socket_path with Sys_error _ -> ());
    Option.iter (Sys.set_signal Sys.sigpipe) previous_sigpipe;
    log t "stopped";
    Ok ()
