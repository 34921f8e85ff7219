(** Zero-dependency telemetry for the simulation kernel and AnaFAULT.

    The subsystem records three kinds of event - {e spans} (a named,
    timed region of execution with a parent link when spans nest),
    {e counts} (a named integer increment) and {e samples} (a named
    float observation, the raw material for histograms) - into a
    pluggable {!sink}.  Sinks are safe under OCaml 5 domains: every
    domain writes into its own buffer (no locks on the emit path beyond
    first-touch registration), and {!drain} merges the per-domain
    buffers into one time-ordered stream.

    The null sink is free by construction: every emitter first checks
    {!enabled}, which is a single pattern match, so an uninstrumented
    run and a null-sink run execute the same arithmetic.  Instrumented
    call sites that need to build attribute strings should guard the
    construction with [if Obs.enabled sink then ...].

    Timestamps come from {!Clock.now}: wall-clock seconds from
    [Unix.gettimeofday], the closest thing to a monotonic clock the
    OCaml standard distribution offers without C stubs.  Spans measure
    durations as differences of that clock, so they are robust to
    everything short of the system clock stepping mid-span. *)

(** {1 Fault injection}

    Deterministic failpoints ({!Failpoint.arm}, [ANAFAULT_FAILPOINTS])
    compiled into the tree's crash paths; see {!Failpoint}. *)

module Failpoint : module type of Failpoint

(** {1 Events} *)

(** Attribute values attached to events. *)
type value = Bool of bool | Int of int | Float of float | Str of string

type attrs = (string * value) list

type event =
  | Span of {
      name : string;
      domain : int;  (** id of the emitting domain *)
      start : float;  (** {!Clock.now} at entry *)
      dur : float;  (** seconds spent inside *)
      parent : string option;  (** enclosing span on the same domain *)
      attrs : attrs;
    }
  | Count of { name : string; domain : int; time : float; n : int; attrs : attrs }
  | Sample of { name : string; domain : int; time : float; v : float; attrs : attrs }

val event_name : event -> string

(** Start time for spans, emission time otherwise. *)
val event_time : event -> float

val event_domain : event -> int

module Clock : sig
  val now : unit -> float
end

(** {1 Sinks} *)

type sink

(** Discards everything; {!enabled} is [false].  The default everywhere. *)
val null : sink

(** Buffers events in memory; {!drain} returns them. *)
val memory : unit -> sink

(** Buffers like {!memory}; {!drain} additionally writes every drained
    event as one JSON line to the channel and flushes it. *)
val jsonl : out_channel -> sink

(** Fans every event out to each sink.  [drain] drains the components
    and returns the first non-null component's events. *)
val tee : sink list -> sink

(** [tagged sink attrs] scopes a sink: every event emitted through the
    returned sink carries [attrs] in addition to its own (the event's
    own attributes ride first, so they win an assoc lookup on a shared
    key).  The daemon uses this to stamp each job's telemetry with the
    job fingerprint, so one shared sink still yields per-job streams.
    Wrapping {!null} (or an empty [attrs]) is the identity. *)
val tagged : sink -> attrs -> sink

(** [false] only for {!null} (and a tee of nulls): the guard hot call
    sites use to skip attribute construction. *)
val enabled : sink -> bool

(** Merge the per-domain buffers into one stream sorted by
    {!event_time}, clear them, and run the sink's output action (the JSONL
    write).  Call after worker domains have been
    joined; draining while another domain is still emitting may miss
    its most recent events but never corrupts the buffers already
    registered. *)
val drain : sink -> event list

(** {1 Emitting} *)

(** [count sink name n] records an increment of [n]. *)
val count : sink -> ?attrs:attrs -> string -> int -> unit

(** [sample sink name v] records one observation of [v]. *)
val sample : sink -> ?attrs:attrs -> string -> float -> unit

(** A handle on the span currently being recorded; a no-op token under
    the null sink. *)
type span_handle

(** [span sink name f] times [f], linking the span to the enclosing
    span on the same domain, and records it when [f] returns {e or
    raises} (an escaping exception adds an ["error"] attribute).  [f]
    receives a handle for attaching result-dependent attributes via
    {!set}. *)
val span : sink -> ?attrs:attrs -> string -> (span_handle -> 'a) -> 'a

(** Attach an attribute to a live span (no-op under the null sink).
    Guard expensive value construction with {!enabled}. *)
val set : span_handle -> string -> value -> unit

(** {1 Aggregation} *)

module Summary : sig
  type stat = {
    count : int;
    total : float;
    min : float;
    max : float;
    mean : float;
  }

  type t = {
    spans : (string * stat) list;  (** stat over durations, seconds *)
    counters : (string * int) list;  (** summed increments *)
    samples : (string * stat) list;
  }

  val of_events : event list -> t

  (** Aligned three-block table (spans / counters / samples), names
      sorted. *)
  val pp : Format.formatter -> t -> unit
end

(** {1 JSON encoding}

    A minimal self-contained JSON reader/writer, enough for the JSONL
    trace format and its round-trip tests.  Numbers keep the int/float
    distinction lexically: integers print without ['.'] or exponent and
    parse back as {!Json.Int}. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val of_string : string -> (t, string) result

  (** {2 Field decoding}

      The vocabulary every record decoder in the tree is written in.
      A decoder is a [t -> ('a, string) result]; a field error names
      the field ([name ^ ": " ^ reason]). *)

  (** The fields of an object; [Error] for any other value. *)
  val obj_fields : t -> ((string * t) list, string) result

  (** [get fields name ~default decode]: an absent or [null] field is
      [default]; a present one must decode. *)
  val get :
    (string * t) list ->
    string ->
    default:'a ->
    (t -> ('a, string) result) ->
    ('a, string) result

  (** [require fields name decode]: the field must be present and
      decode. *)
  val require :
    (string * t) list -> string -> (t -> ('a, string) result) -> ('a, string) result

  val as_str : t -> (string, string) result
  val as_int : t -> (int, string) result

  (** Accepts an integer too ([2] for [2.0]). *)
  val as_float : t -> (float, string) result

  val as_bool : t -> (bool, string) result
  val as_list : t -> (t list, string) result

  (** [list_of decode]: a list whose every item decodes; the first
      item that does not is the error. *)
  val list_of : (t -> ('a, string) result) -> t -> ('a list, string) result

  (** [as_opt decode]: [null] is [None], anything else must decode. *)
  val as_opt : (t -> ('a, string) result) -> t -> ('a option, string) result
end

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result

module Jsonl : sig
  (** One JSON object per line, flushed at the end. *)
  val write : out_channel -> event list -> unit

  (** Parse a whole JSONL trace; [Error] carries the first offending
      line number and reason.  Blank lines are ignored. *)
  val parse_string : string -> (event list, string) result

  val read_file : string -> (event list, string) result
end
