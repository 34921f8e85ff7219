(** Content-addressed campaign result cache, checksummed and bounded.

    Keys are campaign fingerprints ({!Anafault.Simulate.fingerprint}:
    a digest over the printed circuit deck, every result-affecting
    option, and the printed fault list), so two submissions of the same
    electrical problem - whatever file names or whitespace they arrived
    with - address the same entry.  Other job kinds may namespace
    their fingerprints with a lowercase prefix ([lift-<hex>] for
    extraction results); prefixed and bare keys share the directory,
    the budget and the LRU order.  Values are
    {!Anafault.Campaign.result_to_json} objects (or the job kind's own
    answer object), one file per entry ([<fingerprint>.json]): the
    payload sealed with a checksum ({!Durable.seal}), committed with
    {!Durable.replace} so a crash never commits a torn entry.

    An entry that fails to unseal - bit rot, a torn write, a file in
    an older entry format - is {e quarantined}: renamed to
    [<name>.json.corrupt], counted ([cache.corrupt]), and reported as a
    miss.  Corruption never raises out of {!find}, and a failed write
    never raises out of {!store}.

    With a byte budget, {!store} evicts least-recently-used entries
    ([cache.evictions]) until the cache fits; an entry bigger than the
    whole budget is not stored at all.

    Failpoints: [cache.store] fires before each write; a
    [cache.store.torn] torn-write point commits a truncated entry (for
    exercising the quarantine path). *)

type t

(** [create ~dir ()] opens (creating [dir] if needed) a cache rooted
    there, seeding LRU order from file modification times.
    [budget_bytes] bounds the directory's entry bytes (0, the default,
    is unbounded); [obs] receives [cache.evictions] / [cache.corrupt] /
    [cache.oversized] / [cache.store_failed] counters. *)
val create :
  ?budget_bytes:int -> ?obs:Obs.sink -> dir:string -> unit -> (t, string) result

val dir : t -> string

(** [find t fingerprint] is the stored result object, if any.  A
    corrupt entry is quarantined and reported as a miss.
    Thread-safe. *)
val find : t -> string -> Obs.Json.t option

(** [store t fingerprint json] writes the entry durably, then enforces
    the budget.  Thread-safe; the last writer wins.  A write that fails
    (disk full, [EACCES], an armed [cache.store]) is counted as
    [cache.store_failed], with the error as an attribute, and dropped:
    the entry is simply not cached. *)
val store : t -> string -> Obs.Json.t -> unit

(** Bytes currently accounted to entries (headers included). *)
val total_bytes : t -> int

(** Lifetime counters of this handle. *)
val hits : t -> int

val misses : t -> int

val stores : t -> int

val evictions : t -> int

val corrupt : t -> int
