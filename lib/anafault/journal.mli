(** Crash-safe campaign journal: completed per-fault results appended to
    a JSONL file as they happen, so a killed campaign resumes where it
    died instead of restarting from fault zero.

    Format: one header line identifying the campaign, then one
    {!Outcome.result_to_json} object per completed fault, each flushed
    as it is written:
    {v
    {"journal": "anafault", "version": 1, "fingerprint": "3f2a...", "faults": 65}
    {"index": 0, "id": "#1", "outcome": "detected", "t_detect": 1.2499999999999999e-06, "attempts": [{"strategy": "baseline"}], "stats": {"newton_iterations": 905, "accepted_steps": 412, "rejected_steps": 0}, "cpu_seconds": 0.0031}
    v}
    A crash can tear at most the final line; {!start} skips what it
    cannot parse, so every intact line is a fault that never re-runs,
    and rewrites the file without it before anything appends.

    The fingerprint ties a journal to one campaign (circuit + config +
    fault list); resuming against anything else is refused.  The domain
    count and telemetry sink are deliberately not part of the
    fingerprint - results are schedule-independent, so a journal written
    serially resumes under 8 domains and vice versa. *)

type t

(** [fingerprint pieces] is a stable hex digest of the given strings
    (circuit deck, config summary, fault list - see
    {!Simulate.fingerprint}). *)
val fingerprint : string list -> string

(** [start ~path ~fingerprint ~resume ~faults] opens a journal for a
    campaign over [faults].  Without [resume] (or when [path] does not
    exist) the file is truncated and a fresh header written.  With
    [resume], the existing file is validated against [fingerprint] and
    the fault count, every parseable result line is restored, the file
    is rewritten atomically as a fresh run lays it out (header, then
    the restored lines in index order; a torn tail is dropped), and
    subsequent records append. *)
val start :
  path:string ->
  fingerprint:string ->
  resume:bool ->
  faults:Faults.Fault.t array ->
  (t, string) result

(** [find t index fault] is the completed result for fault [index], if
    the journal holds one whose stored id matches [fault].  Thread-safe. *)
val find : t -> int -> Faults.Fault.t -> Outcome.fault_result option

(** [record t index result] appends one result line and flushes it.
    Thread-safe (parallel domains record concurrently). *)
val record : t -> int -> Outcome.fault_result -> unit

(** Results restored from disk when the journal was opened. *)
val restored_count : t -> int

val total : t -> int

val path : t -> string

val close : t -> unit
