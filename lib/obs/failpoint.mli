(** Deterministic fault injection for AnaFAULT's own crash paths.

    A {e failpoint} is a named site compiled into code that must
    survive sudden death - cache writes, queue appends, journal
    records, domain sessions.  Unarmed, a site costs one mutable read.
    Armed (programmatically via {!arm}, or through the
    [ANAFAULT_FAILPOINTS] environment variable via {!load_env}), the
    site misbehaves on cue, so tests and smoke scripts force every
    recovery path deterministically: kill -9 mid-job, a torn cache
    write, a dying campaign domain.

    The spec language, comma-separated:
    {v
    NAME=crash[@N]            sudden death (Unix._exit 70, nothing
                              flushed)
    NAME=fail[@N]             raise a typed, catchable error
    NAME=delay:SECONDS[@N]    sleep, then continue (fires every hit)
    NAME=torn:FRACTION[@N]    at a write site: commit only this
                              fraction of the bytes
    v}
    [@N] makes the point fire on its Nth hit (default: the first).
    Crash, fail and torn points are one-shot per process: the registry
    is process-local, so a restarted process starts unarmed unless its
    own environment arms it again.

    The sites the tree compiles in are listed in {!sites}; the spec
    language arms only those. *)

(** Every failpoint site in the tree.  [<int>] in a name stands for a
    decimal index: [parsim.session.<int>] is hit where each campaign
    domain opens its engine session. *)
val sites : string list

type action =
  | Crash  (** sudden death: [Unix._exit 70], nothing flushed *)
  | Fail  (** raise {!Injected} at the site *)
  | Delay of float  (** sleep seconds *)
  | Torn of float  (** commit only this fraction of a write *)

(** Raised at a site armed with {!Fail}; the payload is the site name. *)
exception Injected of string

(** Disarm everything (tests call this between cases). *)
val reset : unit -> unit

(** [arm name action] arms a site; [after] is the 1-based hit on which
    it fires.  [name] is not checked against {!sites}, so a test can
    arm a private name of its own. *)
val arm : ?after:int -> string -> action -> unit

(** [hit name] fires the armed action at a plain site: crash, raise,
    or delay.  A no-op when [name] is unarmed ([Torn] is ignored -
    that shape belongs to {!cut} sites). *)
val hit : string -> unit

(** [cut name payload] at a write site: [Some prefix] when a [Torn]
    point fires (the caller commits just the prefix, simulating a torn
    write); [None] otherwise.  Crash / fail / delay actions armed on
    the same name behave as in {!hit}. *)
val cut : string -> string -> string option

(** Is an unspent point armed under this name? *)
val active : string -> bool

(** Parse and arm a spec string (see the language above).  [Error],
    arming nothing, when the spec does not parse or names a point that
    matches none of {!sites} ([parsim.session.3] matches
    [parsim.session.<int>]): a typo fails loudly instead of arming
    nothing. *)
val configure : string -> (unit, string) result

(** ["ANAFAULT_FAILPOINTS"] *)
val env_var : string

(** Arm from [ANAFAULT_FAILPOINTS] if set; [Ok ()] when unset. *)
val load_env : unit -> (unit, string) result
