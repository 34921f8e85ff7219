(* Telemetry overhead - the same VCO fault batch under every sink.

   The contract of lib/obs is that an uninstrumented run stays
   uninstrumented: with the null sink every emission site reduces to one
   pattern match, so the batch must cost the same as before the
   subsystem existed.  Two independent null runs give the measurement
   noise floor; the target is a null-sink overhead below 2 %. *)

let repeats = 5

let fault_count = 12

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let batch ~obs faults =
  let config = { Cat.Demo.config with Anafault.Simulate.obs; batch = 1 } in
  let run, _ = Anafault.Parsim.execute config (Cat.Demo.schematic ()) faults in
  ignore (Anafault.Simulate.tally run)

let measure mk_sink faults =
  let sample () =
    let obs, finish = mk_sink () in
    let t0 = Unix.gettimeofday () in
    batch ~obs faults;
    let events = Obs.drain obs in
    let dt = Unix.gettimeofday () -. t0 in
    finish ();
    (dt, List.length events)
  in
  let samples = List.init repeats (fun _ -> sample ()) in
  (median (List.map fst samples), snd (List.hd samples))

let run () =
  Helpers.banner "Telemetry overhead - VCO fault batch per sink";
  let faults =
    List.filteri (fun i _ -> i < fault_count) (Helpers.lift_faults ())
  in
  Printf.printf "%d faults, %d repeats per sink, median wall time\n\n"
    (List.length faults) repeats;
  (* Warm up: pay the lazy layout extraction and reach a steady GC state
     before anything is timed. *)
  batch ~obs:Obs.null faults;
  let null () = (Obs.null, fun () -> ()) in
  let memory () = (Obs.memory (), fun () -> ()) in
  let jsonl () =
    let path = Filename.temp_file "anafault_obs" ".jsonl" in
    let oc = open_out path in
    ( Obs.jsonl oc,
      fun () ->
        close_out oc;
        Sys.remove path )
  in
  let t_null, _ = measure null faults in
  let t_null2, _ = measure null faults in
  let t_memory, n_memory = measure memory faults in
  let t_jsonl, n_jsonl = measure jsonl faults in
  let pct t = 100.0 *. ((t /. t_null) -. 1.0) in
  Printf.printf "%-22s %10s %10s %8s\n" "sink" "wall [s]" "overhead" "events";
  Printf.printf "%-22s %10.3f %10s %8d\n" "null" t_null "-" 0;
  Printf.printf "%-22s %10.3f %9.2f%% %8d    <- noise floor (null A/A)\n"
    "null (again)" t_null2 (pct t_null2) 0;
  Printf.printf "%-22s %10.3f %9.2f%% %8d\n" "memory" t_memory (pct t_memory)
    n_memory;
  Printf.printf "%-22s %10.3f %9.2f%% %8d\n" "jsonl (tmpfile)" t_jsonl
    (pct t_jsonl) n_jsonl;
  Printf.printf "\ntarget: null-sink overhead < 2%% of the uninstrumented batch\n\
                 (the null rows differ only by measurement noise; compare the\n\
                 instrumented rows against that floor)\n"
