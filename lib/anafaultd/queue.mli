(** The daemon's persistent job queue: a write-ahead JSONL journal of
    submissions, replayed at startup, so queued and running jobs
    survive [kill -9].

    Protocol: {!push} appends (and fsyncs) a record {e before} the
    submission is acknowledged; {!mark_done} appends a tombstone when
    the job leaves the system.  {!open_} replays push-minus-done in
    arrival order and compacts the file ({!Durable.replace}).  A
    crash tears at most the trailing line, which replay skips;
    duplicate pushes of one fingerprint collapse to the first.

    Failpoints: [queue.append] fires before a push record is written,
    [queue.appended] after it is durable. *)

type entry = {
  fingerprint : string;  (** the campaign fingerprint - the dedup key *)
  client : string;  (** submitting client id ("" = anonymous) *)
  spec : Anafault.Campaign.spec;
}

type t

(** [open_ ~path] replays and compacts the journal at [path] (creating
    it when missing) and returns the handle plus the pending entries in
    arrival order - the jobs a restarted daemon must re-enqueue. *)
val open_ : path:string -> (t * entry list, string) result

(** [push t entry] makes the submission durable.  [Ok ()] without
    writing when the fingerprint is already pending.  Thread-safe. *)
val push : t -> entry -> (unit, string) result

(** [mark_done t fingerprint] retires a pending entry (job finished,
    failed, or was rejected post-queue).  Unknown fingerprints are
    ignored.  Thread-safe. *)
val mark_done : t -> string -> unit

(** Jobs currently pending (queued or running). *)
val pending : t -> int

val path : t -> string

val close : t -> unit
