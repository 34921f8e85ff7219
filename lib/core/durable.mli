(** The one durability protocol behind every file this tree writes and
    reads back: the campaign journal, the daemon's queue WAL, its
    result cache and LIFT's artefact store.

    Three write shapes cover them all:
    - {!replace} commits a whole file atomically (temp file in the
      target's directory, rename over the target), so a crash leaves
      either the old contents or the new, never a torn mix;
    - {!append} adds one line to an open log and fsyncs it, so a line
      is on disk before anyone depends on it; a crash tears at most
      the final line, which readers skip;
    - {!seal} frames a blob with a magic string and a checksum, so a
      reader ({!unseal}) can tell a torn or bit-rotted blob from a good
      one without trusting the writer.

    Every fsync is best-effort: an fsync error is ignored, because some
    filesystems refuse it (a directory fsync in particular). *)

(** [fsync_channel oc] flushes [oc] and fsyncs its file descriptor. *)
val fsync_channel : out_channel -> unit

(** [fsync_dir dir] fsyncs the directory itself, persisting a fresh
    entry or rename target in it. *)
val fsync_dir : string -> unit

(** [replace path write] commits [path] atomically: [write] fills a
    fresh temporary file in [path]'s directory, which is then renamed
    over [path].  With [sync] (the default) the file is fsynced before
    the rename and the directory after it; without, a crash may lose
    the write, but never tears [path] into a mix of old and new.

    If [write] (or the rename) raises, the temporary file is removed,
    [path] is left as it was, and the exception is re-raised.
    Concurrent replaces of one path race benignly: each has its own
    temporary file, and the last rename wins. *)
val replace : ?sync:bool -> string -> (out_channel -> unit) -> unit

(** [append oc line] writes [line] and a newline to [oc], then flushes
    and fsyncs it. *)
val append : out_channel -> string -> unit

(** [fold_lines path ~init f] folds [f] over every line of the file at
    [path], in order, blank and torn lines included.  Raises
    [Sys_error] when [path] cannot be opened. *)
val fold_lines : string -> init:'a -> ('a -> string -> 'a) -> 'a

(** [ensure_dir dir] creates [dir] and any missing parents.  [Error]
    says why [dir] is not a usable directory: it exists as something
    else, or a mkdir failed. *)
val ensure_dir : string -> (unit, string) result

(** [seal ~magic payload] is [magic ^ md5hex payload ^ payload]: the
    blob a reader validates with {!unseal}. *)
val seal : magic:string -> string -> string

(** [unseal ~magic blob] is the payload of a blob {!seal} wrote with
    the same [magic]; [None] for a wrong magic, a truncated blob or a
    checksum mismatch. *)
val unseal : magic:string -> string -> string option
