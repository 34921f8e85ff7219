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
    cannot parse, so every intact line is a fault that never re-runs.

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
    the fault count, every parseable result line is restored, and
    subsequent records append. *)
val start :
  path:string ->
  fingerprint:string ->
  resume:bool ->
  faults:Faults.Fault.t array ->
  (t, string) result

(** [view t ~map] is the same journal addressed through other indices:
    [find]/[record] on the view at index [i] reach the parent at
    [map i].  The channel, lock and completed table are shared, so a
    campaign loop running over a shard's sub-list records each result
    under its whole-campaign index - the piece that makes shard
    journals mergeable.  Views compose. *)
val view : t -> map:(int -> int) -> t

(** [find t index fault] is the completed result for fault [index], if
    the journal holds one whose stored id matches [fault].  Thread-safe. *)
val find : t -> int -> Faults.Fault.t -> Outcome.fault_result option

(** [record t index result] appends one result line and flushes it.
    Thread-safe (parallel domains record concurrently). *)
val record : t -> int -> Outcome.fault_result -> unit

(** Every held result with its whole-campaign index, sorted by index -
    the material a campaign result is rebuilt from without
    re-simulating. *)
val completed_results : t -> (int * Outcome.fault_result) list

(** [merge ~out ~fingerprint ~faults paths] combines shard journals
    into one campaign journal at [out]: every input must match the
    campaign (fingerprint and fault count), a later input wins on a
    shared index, and the output is written as a single-process serial
    run writes it (header, then result lines in index order), so the
    merged journal and an unsharded journal are interchangeable.
    Returns the number of results merged.  The output is committed with
    {!Durable.replace}, so a crash mid-merge never tears [out].

    With [lenient] (default false), an unreadable input - missing file,
    torn header, wrong campaign - contributes nothing instead of
    failing the merge: the salvage mode the daemon uses when a shard
    child died and its partial journal is all there is. *)
val merge :
  ?lenient:bool ->
  out:string ->
  fingerprint:string ->
  faults:Faults.Fault.t array ->
  string list ->
  (int, string) result

(** Results restored from disk when the journal was opened. *)
val restored_count : t -> int

val total : t -> int

val path : t -> string

val close : t -> unit
