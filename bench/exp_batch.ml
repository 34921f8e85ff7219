(* Batch-mode experiments for the session/scheduler rework:

   E-B1 - session reuse: simulate the same >=20-fault universe once by
   rebuilding all engine state per fault (the pre-session reference
   path) and once through a shared Engine.Session whose node map and
   solver buffers persist across the batch.

   E-B2 - scheduling: on a deliberately skewed fault list (full
   transients at even indices, instantly failing faults at odd ones),
   compare static round-robin chunking against the work-stealing
   scheduler.  The box the harness runs on may have a
   single core, so besides wall clock we report each schedule's critical
   path - the largest per-domain busy time, i.e. the wall clock a
   multi-core machine would see. *)

let deck =
  {|batch two-stage amplifier
VDD vdd 0 5
VIN in 0 PULSE(0 5 0 10n 10n 1u 2u)
RD1 vdd mid 10k
M1 mid in 0 0 NM W=20u L=1u
RD2 vdd out 10k
M2 out mid 0 0 NM W=20u L=1u
RF out fb 5k
CF fb 0 50f
CL out 0 20f
.model NM NMOS VTO=1 KP=60u
.tran 20n 4u UIC
.end
|}

let tran = { Netlist.Parser.tstep = 20e-9; tstop = 4e-6; uic = true }

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Static round-robin reference: domain [d] simulates exactly the faults
   at indices congruent to [d], no stealing.  Same session machinery as
   Parsim so the comparison isolates the schedule. *)
let static_round_robin ~domains config circuit ~nominal faults =
  let faults = Array.of_list faults in
  let n = Array.length faults in
  let results = Array.make n None in
  let busy = Array.make domains 0.0 in
  let chunk d () =
    let t0 = Unix.gettimeofday () in
    let sess = Anafault.Simulate.session config circuit in
    let i = ref d in
    while !i < n do
      let fault = faults.(!i) in
      results.(!i) <-
        Some
          (Anafault.Simulate.guard fault (fun () ->
               Anafault.Simulate.run_one_in config sess ~nominal fault));
      i := !i + domains
    done;
    busy.(d) <- Unix.gettimeofday () -. t0
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (chunk (d + 1))) in
  chunk 0 ();
  List.iter Domain.join spawned;
  let results =
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None -> assert false)
  in
  (results, Array.to_list busy)

let run () =
  Helpers.banner "Batch mode - session reuse and work-stealing schedule";
  let circuit = (Netlist.Parser.parse deck).Netlist.Parser.circuit in
  let config = Anafault.Simulate.default_config ~tran ~observed:"out" () in
  let faults = Faults.Universe.build circuit in
  let n_faults = List.length faults in
  Printf.printf "fault universe: %d faults (two-stage amplifier fixture)\n" n_faults;

  (* E-B1: rebuild-per-fault (a fresh session for every fault) vs one
     shared session, same faults, serial.  The loops are short, so interleave several repetitions (so GC and
     cache drift hit both paths alike) and keep each path's best round,
     after one warm-up so neither pays the lazy setup.  Run the
     comparison under two stimuli: the realistic 4 us test (transient
     work dominates; setup amortization is a small, steady win) and a
     short screening stimulus where the per-fault setup is a visible
     fraction of the work. *)
  let compare_paths label config =
    let nominal, _ = Anafault.Simulate.nominal config circuit in
    let rebuild_loop () =
      List.map
        (fun f ->
          Anafault.Simulate.guard f (fun () ->
              Anafault.Simulate.run_one_in config
                (Anafault.Simulate.session config circuit)
                ~nominal f))
        faults
    in
    let session_loop () =
      let sess = Anafault.Simulate.session config circuit in
      List.map
        (fun f ->
          Anafault.Simulate.guard f (fun () ->
              Anafault.Simulate.run_one_in config sess ~nominal f))
        faults
    in
    let reps = 15 in
    ignore (rebuild_loop ());
    ignore (session_loop ());
    let t_rebuild = ref infinity and t_session = ref infinity in
    let rebuild = ref [] and session = ref [] in
    for _ = 1 to reps do
      Gc.full_major ();
      let r, t = wall rebuild_loop in
      if t < !t_rebuild then begin
        t_rebuild := t;
        rebuild := r
      end;
      Gc.full_major ();
      let r, t = wall session_loop in
      if t < !t_session then begin
        t_session := t;
        session := r
      end
    done;
    Printf.printf "%s  (best of %d)\n" label reps;
    Printf.printf "  %-30s %10.4fs\n" "rebuild per fault (reference)" !t_rebuild;
    Printf.printf "  %-30s %10.4fs\n" "shared session (patched)" !t_session;
    Printf.printf "  %-30s %9.1f%%\n" "session saving"
      (100.0 *. (1.0 -. (!t_session /. !t_rebuild)));
    (!rebuild, !session)
  in
  (* DC screening first: one operating point per fault.  Here the solve
     is tens of microseconds, so the per-fault topology setup the
     session amortises (node map, device compilation, buffer allocation)
     is a visible fraction of the work. *)
  let inject f = Faults.Inject.apply ~model:config.Anafault.Simulate.model circuit f in
  let dc_rebuild () =
    List.iter
      (fun f ->
        try ignore (Sim.Engine.run (inject f) Sim.Engine.Analysis.Op) with _ -> ())
      faults
  in
  let dc_session () =
    let sess = Sim.Engine.Session.create circuit in
    List.iter
      (fun f ->
        try
          Sim.Engine.Session.with_patch sess (inject f) (fun s ->
              ignore (Sim.Engine.Session.solve_dc s))
        with _ -> ())
      faults
  in
  let dc_reps = 50 in
  ignore (dc_rebuild ());
  ignore (dc_session ());
  let t_dc_rebuild = ref infinity and t_dc_session = ref infinity in
  for _ = 1 to dc_reps do
    Gc.full_major ();
    let (), t = wall dc_rebuild in
    if t < !t_dc_rebuild then t_dc_rebuild := t;
    Gc.full_major ();
    let (), t = wall dc_session in
    if t < !t_dc_session then t_dc_session := t
  done;
  Printf.printf "DC screening (operating point per fault)  (best of %d)\n" dc_reps;
  Printf.printf "  %-30s %10.4fs\n" "rebuild per fault (reference)" !t_dc_rebuild;
  Printf.printf "  %-30s %10.4fs\n" "shared session (patched)" !t_dc_session;
  Printf.printf "  %-30s %9.1f%%\n" "session saving"
    (100.0 *. (1.0 -. (!t_dc_session /. !t_dc_rebuild)));

  let rebuild, session = compare_paths "realistic stimulus (4 us)" config in
  let screening =
    { config with
      tran = { Netlist.Parser.tstep = 50e-9; tstop = 0.5e-6; uic = true } }
  in
  ignore (compare_paths "screening stimulus (0.5 us)" screening);
  let outcome (r : Anafault.Simulate.fault_result) =
    match r.outcome with
    | Anafault.Simulate.Detected _ -> `D
    | Anafault.Simulate.Undetected -> `U
    | Anafault.Simulate.Sim_failed _ -> `F
  in
  let disagreements =
    List.fold_left2
      (fun acc a b -> if outcome a <> outcome b then acc + 1 else acc)
      0 rebuild session
  in
  Printf.printf "%-32s %10d  (want 0)\n" "per-fault disagreements" disagreements;

  (* E-B2: skewed list - interleave the real faults (each a full
     transient, ~hundreds of microseconds) with trivially failing ones
     (unknown device -> Sim_failed in microseconds).  With two domains,
     static round-robin deals every real fault to domain 0 and every
     trivial one to domain 1, which then idles; the stealing scheduler
     splits the real work evenly. *)
  let trivial i =
    Faults.Fault.make
      ~id:(Printf.sprintf "T%d" i)
      ~kind:(Faults.Fault.Break
               { net = "in"; moved = [ { Faults.Fault.device = "MGHOST"; port = 0 } ] })
      ~mechanism:"bench_filler" ()
  in
  let skewed =
    List.concat (List.mapi (fun i f -> [ f; trivial i ]) faults)
  in
  let domains = 2 in
  let nominal, _ = Anafault.Simulate.nominal config circuit in
  (* Serial per-fault costs, measured without domain contention.  On a
     one-core box the per-domain elapsed times of a concurrent run count
     time spent waiting for the shared core, so schedule quality is
     judged on the modelled critical path instead: assign each fault its
     serial cost, sum per domain, take the max.  That max is the wall
     clock a machine with [domains] real cores would see. *)
  let serial_cost =
    let sess = Anafault.Simulate.session config circuit in
    Array.of_list
      (List.map
         (fun f ->
           let _, t =
             wall (fun () ->
                 Anafault.Simulate.guard f (fun () ->
                     Anafault.Simulate.run_one_in config sess ~nominal f))
           in
           t)
         skewed)
  in
  let modelled indices_per_domain =
    List.map
      (fun idxs -> List.fold_left (fun acc i -> acc +. serial_cost.(i)) 0.0 idxs)
      indices_per_domain
  in
  let n_skewed = List.length skewed in
  let rr_indices =
    List.init domains (fun d ->
        List.filter (fun i -> i mod domains = d) (List.init n_skewed Fun.id))
  in
  let (_, rr_busy), t_rr =
    wall (fun () -> static_round_robin ~domains config circuit ~nominal skewed)
  in
  ignore rr_busy;
  let (_, ws_stats), t_ws =
    wall (fun () ->
        Anafault.Parsim.execute ~clamp:false
          { config with Anafault.Simulate.domains }
          circuit skewed)
  in
  let ws_indices =
    List.map (fun (d : Anafault.Parsim.domain_stats) -> d.fault_indices) ws_stats
  in
  let rr_load = modelled rr_indices and ws_load = modelled ws_indices in
  let critical l = List.fold_left Float.max 0.0 l in
  Printf.printf "\nskewed list (%d faults, all real work at even indices), %d domains\n"
    n_skewed domains;
  Printf.printf "%-34s %11s %11s\n" "" "round-robin" "stealing";
  Printf.printf "%-34s %10.4fs %10.4fs\n" "wall clock (this 1-core box)" t_rr t_ws;
  Printf.printf "%-34s %10.4fs %10.4fs\n" "critical path (serial-cost model)"
    (critical rr_load) (critical ws_load);
  List.iteri
    (fun d rr ->
      let ws = List.nth ws_load d in
      Printf.printf "%-34s %10.4fs %10.4fs\n"
        (Printf.sprintf "domain %d assigned work" d) rr ws)
    rr_load;
  Printf.printf
    "(critical path = max per-domain sum of serially measured per-fault cost;\n\
    \ it predicts multi-core wall clock, which stealing should level)\n"
