(* The campaign loop, on the shared work-stealing pool.

   Per-fault Newton costs vary wildly (a stuck-open fault converges far
   slower than a low-ohmic bridge), so every domain pulls the next chunk
   of fault indices from the pool's shared counter and hands it to
   Simulate.run_chunk, which primes the domain's session once for the
   chunk and runs its faults one after another.  Each domain owns one engine session (sessions
   are single-threaded), writes results into its own slots of a shared
   buffer, and keeps its own load counters.  A fault whose simulation
   raises is recorded as Sim_failed through Simulate.guard, so one bad
   fault never aborts the run; a domain that dies outright (session
   setup or an unclassifiable error mid-chunk) marks the faults it had
   claimed with a typed failure and reports itself in [died], so the
   campaign can never silently succeed with holes. *)

type domain_stats = {
  domain : int;
  faults_done : int;
  fault_indices : int list;
  newton_iterations : int;
  busy_seconds : float;
  steal_seconds : float;
  died : bool;
}

(* One domain's private state: its session and its load counters. *)
type slot = {
  d : int;
  mutable sess : Sim.Engine.Session.t;
  mutable ndone : int;
  mutable iters : int;
  mutable indices : int list;  (* completion order, newest first *)
}

(* A raising progress callback (a caller stopping the campaign) must
   stop every domain, not just retire the one that called it: the
   wrapper keeps it apart from the errors that kill a domain. *)
exception Progress_raised of exn

let crashed fault failure =
  {
    Simulate.fault;
    outcome = Simulate.Sim_failed failure;
    attempts = [];
    stats = Simulate.zero_stats;
    cpu_seconds = 0.0;
  }

let execute ?progress ?journal ?(clamp = true) config circuit faults =
  let obs = config.Simulate.obs in
  let domains =
    if clamp then max 1 (min config.Simulate.domains (Domain.recommended_domain_count ()))
    else max 1 config.Simulate.domains
  in
  Obs.span obs "anafault.batch"
    ~attrs:
      [ ("faults", Obs.Int (List.length faults)); ("domains", Obs.Int domains) ]
    (fun _ ->
      let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
      let nominal, nominal_stats = Simulate.nominal config circuit in
      let faults = Array.of_list faults in
      let n = Array.length faults in
      let results = Array.make n None in
      (* Prefill journal-restored results so no domain re-simulates a
         completed fault. *)
      Option.iter
        (fun j ->
          Array.iteri
            (fun i fault ->
              match Journal.find j i fault with
              | Some r ->
                results.(i) <- Some r;
                Obs.count obs "journal.skipped" 1
              | None -> ())
            faults)
        journal;
      let completed =
        Atomic.make (Array.fold_left (fun k r -> if Option.is_some r then k + 1 else k) 0 results)
      in
      (* Any domain may drive the progress callback; the CAS lock keeps it
         single-flight, and the completed counter is read inside the
         locked region, so consecutive callbacks see non-decreasing
         counts. *)
      let progress_lock = Atomic.make false and delivered = ref 0 in
      let report () =
        match progress with
        | Some f when Atomic.compare_and_set progress_lock false true -> (
          let c = Atomic.get completed in
          delivered := c;
          match f c n with
          | () -> Atomic.set progress_lock false
          | exception exn ->
            Atomic.set progress_lock false;
            raise (Progress_raised exn))
        | Some _ | None -> ()
      in
      let record slot i r =
        results.(i) <- Some r;
        (* Cancelled results never reach the journal: resume must re-run
           exactly the interrupted faults. *)
        (match r.Simulate.outcome with
        | Simulate.Sim_failed (Simulate.Cancelled _) -> ()
        | Simulate.Sim_failed _ | Simulate.Detected _ | Simulate.Undetected ->
          Option.iter (fun j -> Journal.record j i r) journal);
        slot.ndone <- slot.ndone + 1;
        slot.indices <- i :: slot.indices;
        slot.iters <- slot.iters + r.Simulate.stats.Sim.Engine.newton_iterations;
        ignore (Atomic.fetch_and_add completed 1);
        report ()
      in
      let slots = Array.make domains None in
      let setup d =
        Obs.Failpoint.hit (Printf.sprintf "parsim.session.%d" d);
        let slot =
          { d; sess = Simulate.session config circuit; ndone = 0; iters = 0; indices = [] }
        in
        slots.(d) <- Some slot;
        slot
      in
      let task slot lo hi =
        match
          let todo =
            List.filter (fun i -> Option.is_none results.(i)) (List.init (hi - lo) (( + ) lo))
          in
          if todo <> [] then begin
            let rs =
              Simulate.run_chunk config slot.sess ~nominal (List.map (Array.get faults) todo)
            in
            List.iter2 (record slot) todo rs;
            (* Quarantine: a kernel failure may leave device state or an
               unfinished overlay behind, so the domain's session is
               rebuilt before the next chunk. *)
            if
              List.exists
                (fun r ->
                  match r.Simulate.outcome with
                  | Simulate.Sim_failed failure -> Outcome.poisons_session failure
                  | Simulate.Detected _ | Simulate.Undetected -> false)
                rs
            then begin
              Obs.count obs "session.quarantine" 1;
              slot.sess <- Simulate.session config circuit
            end
          end
        with
        | () -> ()
        | exception (Progress_raised _ as exn) -> raise exn
        | exception exn ->
          (* The domain is dying: give every fault it claimed but did not
             finish a typed failure (never a silent hole) and stop
             stealing.  Unclaimed faults drain through the other
             domains. *)
          let detail = Printf.sprintf "domain %d died: %s" slot.d (Printexc.to_string exn) in
          for i = lo to hi - 1 do
            if Option.is_none results.(i) then begin
              results.(i) <- Some (crashed faults.(i) (Simulate.Crashed detail));
              ignore (Atomic.fetch_and_add completed 1)
            end
          done;
          report ();
          raise Pool.Died
      in
      let reports =
        (* A cancelled token stops every domain claiming new chunks; the
           chunk in flight drains through the engine's own polls. *)
        let cancel = config.Simulate.sim_options.Sim.Engine.cancel in
        match
          Pool.run
            ~stop:(fun () -> Cancel.cancelled cancel)
            ~domains
            ~chunk:(Simulate.effective_batch config ~total:n)
            ~setup task n
        with
        | reports -> reports
        | exception Progress_raised exn -> raise exn
      in
      (* Guarantee the caller a final (total, total) call, unless the last
         one it saw already said so. *)
      (match progress with Some f when n > 0 && !delivered < n -> f n n | Some _ | None -> ());
      let stats =
        List.map
          (fun (r : Pool.report) ->
            let faults_done, fault_indices, newton_iterations =
              match slots.(r.domain) with
              | Some s -> (s.ndone, List.rev s.indices, s.iters)
              | None -> (0, [], 0)
            in
            if r.died then Obs.count obs "parsim.domain_died" 1;
            if Obs.enabled obs then
              Obs.sample obs "parsim.domain_busy_seconds" r.busy_seconds
                ~attrs:
                  [
                    ("worker", Obs.Int r.domain);
                    ("faults_done", Obs.Int faults_done);
                    ("newton_iterations", Obs.Int newton_iterations);
                    ("steal_seconds", Obs.Float r.steal_seconds);
                    ("died", Obs.Bool r.died);
                  ];
            {
              domain = r.domain;
              faults_done;
              fault_indices;
              newton_iterations;
              busy_seconds = r.busy_seconds;
              steal_seconds = r.steal_seconds;
              died = r.died;
            })
          reports
      in
      (* Holes after the join are typed by why the run stopped early: a
         cancelled campaign leaves [Cancelled] faults (which resume
         re-runs), an all-domains-dead run leaves [Crashed] ones. *)
      let unclaimed =
        match Cancel.get config.Simulate.sim_options.Sim.Engine.cancel with
        | Some reason -> Simulate.Cancelled (Cancel.reason_to_string reason)
        | None -> Simulate.Crashed "no domain simulated this fault"
      in
      let results =
        List.init n (fun i ->
            match results.(i) with Some r -> r | None -> crashed faults.(i) unclaimed)
      in
      ( {
          Simulate.config;
          nominal;
          nominal_stats;
          results;
          wall_seconds = Unix.gettimeofday () -. wall0;
          cpu_seconds = Sys.time () -. cpu0;
        },
        stats ))
