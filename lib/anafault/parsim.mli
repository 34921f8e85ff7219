(** The campaign loop: fault simulation scheduled over OCaml 5 domains
    by the shared work-stealing {!Pool}.

    The paper runs "the nominal simulation plus one simulation per fault
    (serially or in parallel)", and notes AnaFAULT was "improved for
    parallel execution in a workstation cluster environment"; per-fault
    simulations are independent, so the same structure maps onto
    shared-memory domains.  Serial is not a separate loop: it is this
    one at one domain, where the pool spawns nothing and the caller's
    domain takes every chunk in fault order.

    A domain claims a chunk of {!Simulate.effective_batch} faults and
    simulates it with one {!Simulate.run_chunk} call, so chunks are the
    unit of work stealing; every width runs each fault by the same rule,
    so the width never changes a result.  Each domain owns one
    {!Sim.Engine.Session}, so the per-topology setup is paid once per
    domain rather than once per fault.

    A fault whose simulation raises is reported as
    {!Simulate.Sim_failed}; the exception never escapes the domain, and
    all results are returned in input order.  Each domain applies the
    retry ladder, per-fault budgets, session quarantine after kernel
    failures, and journal skip/record when a {!Journal.t} is supplied.
    A domain that dies outright (its session setup fails, or an
    unclassifiable error strikes mid-chunk) records a typed [Crashed]
    failure for every fault it had claimed, is counted as
    ["parsim.domain_died"], and reports itself through
    {!domain_stats.died} - a campaign can never silently succeed with
    holes.  The failpoint ["parsim.session.<d>"] fires where domain [d]
    opens its session. *)

(** Per-domain load counters, for judging schedule balance. *)
type domain_stats = {
  domain : int;  (** 0 is the caller's domain *)
  faults_done : int;
  fault_indices : int list;
      (** indices into the input fault list, in completion order *)
  newton_iterations : int;
  busy_seconds : float;  (** wall-clock time the domain spent stealing *)
  steal_seconds : float;
      (** wall-clock time spent pulling chunks off the shared counter,
          including the final unsuccessful steal that ends the domain's
          loop - the scheduler's overhead, normally microseconds *)
  died : bool;
      (** the domain aborted (setup failure or an unclassifiable error
          mid-chunk); its claimed faults carry typed failures, and the
          CLI turns any died domain into a nonzero exit *)
}

(** [execute config circuit faults] is the one campaign entry point
    every front end uses: the nominal run ({!Simulate.nominal}), then
    every fault on [config.domains] domains in chunks of
    {!Simulate.effective_batch}.  Returns the run, with results in input
    order, and the per-domain load sorted by domain index.

    With [clamp] (the default) the domain count is limited to
    [Domain.recommended_domain_count]; [~clamp:false] takes the request
    literally, which oversubscribes small machines but keeps scheduling
    behaviour reproducible.

    [progress] is called with (completed, total): every domain bumps a
    shared atomic completed-counter and any domain may fire the callback
    under a single-flight guard (reads of the counter happen inside the
    guard, so consecutive calls see non-decreasing counts).  After the
    join one final (total, total) call is made unless the last call
    already delivered it, so a one-domain run reports exactly once per
    fault.  A progress callback that raises stops every domain, and the
    exception is re-raised here after the join.  With [journal],
    completed faults are prefilled before any domain starts (never
    re-simulated) and fresh results are recorded as they finish, under
    the journal's internal lock. *)
val execute :
  ?progress:(int -> int -> unit) ->
  ?journal:Journal.t ->
  ?clamp:bool ->
  Simulate.config ->
  Netlist.Circuit.t ->
  Faults.Fault.t list ->
  Simulate.run * domain_stats list
