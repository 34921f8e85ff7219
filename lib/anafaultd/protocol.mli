(** The anafaultd wire protocol: newline-delimited JSON over a Unix
    domain socket.

    A client writes one request object per line; the daemon answers a
    [Submit] with a stream of {!Anafault.Campaign.event} objects (one
    per line, ending in a ["finished"] or ["failed"] event) - or a
    single ["rejected"] object when backpressure turns the job away - a
    [Stats] with one counters object, and [Ping]/[Shutdown] with one
    acknowledgement object.  The connection stays open for further
    requests; either side closing it ends the session.

    Requests:
    {v
    {"cmd": "submit", "spec": { ...campaign spec... }, "client": "ci",
     "deadline_s": 30.0}
    {"cmd": "extract", "lift": { ...lift spec... },
     "simulate": { ...campaign spec... }, "client": "ci"}
    {"cmd": "cancel", "fingerprint": "..."}
    {"cmd": "stats"}
    {"cmd": "ping"}
    {"cmd": "shutdown"}
    v}

    An [Extract] runs LIFT fault extraction on an inline layout and is
    answered with one ["extracted"] object carrying the fault list (in
    the fault-list interface format) and the per-class counts; the
    result is content-addressed in the daemon's cache under a
    ["lift-"]-prefixed fingerprint of the spec, so a repeated layout is
    answered without re-extracting.  When [simulate] is present the
    extracted faults then flow straight into the campaign machinery -
    the embedded spec's own [faults] field is replaced by the extracted
    list - and the usual submit event stream follows the ["extracted"]
    object on the same connection: extract-then-simulate in one round
    trip.

    A [Cancel] names the job by its campaign fingerprint (the one the
    ["accepted"] event reported).  It is answered with one [ok] object
    carrying a ["cancelled": true/false] field - [false] when no such
    job is queued or running - while the job's own subscribers see a
    terminal ["cancelled"] event on their streams.

    Malformed input - lines that are not JSON, objects without a known
    [cmd], oversized requests - yields typed decode errors, never
    exceptions; the daemon answers with a ["failed"] event and keeps
    serving. *)

(** What LIFT extraction needs to be reproducible: the layout itself
    (inline, CIF-like format) and the pricing options.  [tile_nm] is
    the staged pipeline's tile side (0 = one tile); it does not affect
    the result, only how much of the daemon's stage-artefact cache a
    re-extraction of an edited layout can reuse. *)
type lift_spec = {
  layout : string;
  p_min : float;
  uniform_pdf : bool;
  merge_equivalent : bool;
  tile_nm : int;
}

(** Content address of an extraction: ["lift-"] + a digest of the
    canonical spec serialisation.  The prefix keeps extraction results
    and campaign results apart in the shared daemon cache. *)
val lift_fingerprint : lift_spec -> string

type request =
  | Submit of {
      spec : Anafault.Campaign.spec;
      client : string option;
      deadline_s : float option;
    }
      (** [client] identifies the submitter for quota accounting
          ([None] pools into the anonymous bucket); [deadline_s] is a
          wall-clock budget for the whole job measured from acceptance
          (the server may cap it further with its --job-deadline) *)
  | Extract of {
      lift : lift_spec;
      simulate : Anafault.Campaign.spec option;
      client : string option;
      deadline_s : float option;
    }
      (** extract faults from [lift.layout]; with [simulate], feed the
          extracted list into that campaign spec (its [faults] field is
          replaced) and stream the simulation events after the
          ["extracted"] answer.  [client]/[deadline_s] scope the chained
          simulation exactly as in [Submit]. *)
  | Cancel of { fingerprint : string }
      (** stop the queued-or-running job with this campaign
          fingerprint; its subscribers receive a terminal
          ["cancelled"] event *)
  | Stats
  | Ping
  | Shutdown

val request_to_json : request -> Obs.Json.t

val request_of_json : Obs.Json.t -> (request, string) result

(** {1 Backpressure}

    Why a submission was turned away at the door.  The daemon answers
    exactly one ["rejected"] object and is ready for the next request;
    no events stream.  [Queue_full] is transient - a well-behaved
    client backs off and retries; [Quota_exceeded] is per-client and
    persists until that client's jobs drain. *)

type reject_reason = Queue_full | Quota_exceeded

val reject_reason_to_string : reject_reason -> string

(** [{"event":"rejected","reason":...,"message":...}] *)
val rejected_to_json : reason:reject_reason -> message:string -> Obs.Json.t

(** [Ok (Some _)] for a rejection object, [Ok None] for anything else
    (fall through to the event codec), [Error] for a malformed
    rejection. *)
val rejected_of_json :
  Obs.Json.t -> ((reject_reason * string) option, string) result

(** The one-object answers to non-submit requests. *)
val ok : Obs.Json.t

(** {1 Extraction answers} *)

(** The daemon's answer to an [Extract]: the ranked fault list in the
    fault-list interface format, plus the per-class counts the report
    would print. *)
type extracted = {
  ex_fingerprint : string;
  ex_cached : bool;
  ex_faults : string;  (** fault-list interface text, ranked order *)
  ex_sites : int;  (** sites considered before thresholding *)
  ex_bridging : int;
  ex_line_opens : int;
  ex_contact_opens : int;
  ex_stuck_opens : int;
}

(** [{"event":"extracted", ...}] *)
val extracted_to_json : extracted -> Obs.Json.t

(** [Ok (Some _)] for an extraction answer, [Ok None] for anything
    else (fall through to the event codec), [Error] for a malformed
    one. *)
val extracted_of_json : Obs.Json.t -> (extracted option, string) result

(** {1 Line transport} *)

(** [send oc json] writes one JSON line and flushes. *)
val send : out_channel -> Obs.Json.t -> unit

(** [recv ic] reads one line and parses it; [Ok None] at end of
    stream.  Blank lines are skipped.  A line longer than
    [limit_bytes] (default 64 MiB, comfortably above any real campaign
    spec) is drained and reported as a typed error, leaving
    the channel at the next line boundary. *)
val recv :
  ?limit_bytes:int -> in_channel -> (Obs.Json.t option, string) result
