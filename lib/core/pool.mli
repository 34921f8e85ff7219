(** Work stealing over OCaml 5 domains: the one scheduler behind both
    AnaFAULT's fault campaigns ({!Anafault.Parsim}) and LIFT's per-tile
    stage fan-outs ({!Defects.Pipeline}).

    Per-task costs vary wildly (a stuck-open fault against a low-ohmic
    bridge, an empty corner tile against one stuffed with devices), so
    nothing is sliced statically: every domain claims the next
    [[lo, hi)] chunk of task indices from one shared atomic counter until
    the range is drained.  The caller's domain is worker 0; at width 1
    nothing is spawned and every chunk runs in the caller, in index
    order.

    Failure semantics:
    - a per-domain [setup] that raises kills only that domain (its
      report says [died]); the other domains drain the range;
    - a task that raises {!Died} kills only its own domain, the same
      way - the task has already accounted for its chunk;
    - any other task exception stops every domain at its next claim and
      is re-raised after all domains joined - never swallowed;
    - [stop] is checked before every claim, so a cancelled run stops
      claiming while the chunks in flight finish. *)

(** One domain's share of the run. *)
type report = {
  domain : int;  (** 0 is the caller's domain *)
  chunks : int;  (** chunks claimed and finished *)
  busy_seconds : float;  (** wall-clock time from setup to exit *)
  steal_seconds : float;
      (** wall-clock time spent claiming chunks, including the final
          unsuccessful claim - the scheduler's own overhead *)
  died : bool;  (** setup failed or a task raised {!Died} *)
}

(** Raised by a task to retire its own domain (see above). *)
exception Died

(** [run ~domains ~chunk ~setup task n] runs [task state lo hi] over
    [[0, n)] in chunks of [chunk] indices on up to [domains] domains
    (never more than there are chunks).  [setup d] builds domain [d]'s
    private state before its first claim.  Returns one report per
    domain, sorted by domain index. *)
val run :
  ?stop:(unit -> bool) ->
  domains:int ->
  chunk:int ->
  setup:(int -> 'state) ->
  ('state -> int -> int -> unit) ->
  int ->
  report list

(** [map ~domains f n] is [Array.init n f] computed by {!run}, one index
    per claim.  Results fill indexed slots, so the output is identical
    whatever the width; the first exception from [f] is re-raised after
    the join. *)
val map : domains:int -> (int -> 'a) -> int -> 'a array
