(* daemon_mix: the anafaultd process with a fresh work directory, driven
   over its socket by a closed loop of two client connections (each
   sends its next request only when the previous one has finished).

   Each client draws its requests from the seed: about 25 % fresh
   submits (a 4-fault subset of a diode RC ladder's universe that no
   client has sent before, so it is simulated), about 65 % resubmits of
   a spec the same client already saw finish (cache hits), and about
   10 % extract requests over nine distinct 3x3 layouts.  Simulation is
   small, so the protocol, the write-ahead queue, the campaign journal,
   the result cache and the scheduler thread dominate.

   Each layout is extracted once before the clients start, so the
   mix's extracts are answered from the daemon's result cache.

   Checks: every hit's table equals its fresh twin's, the first fresh
   results equal an in-process Campaign.run_local of the same spec, and
   every extract equals the serial Lift.run answer. *)

open Workload
module J = Obs.Json
module P = Anafaultd.Protocol
module C = Anafault.Campaign

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c req = P.send c.oc (P.request_to_json req)

let recv c =
  match P.recv c.ic with
  | Ok (Some j) -> j
  | Ok None -> Util.fail "daemon closed the connection"
  | Error e -> Util.fail "daemon sent a malformed line: %s" e

let ping c =
  send c P.Ping;
  ignore (recv c)

(* {1 The daemon process} *)

type daemon = { pid : int; socket : string; dir : string }

(* The anafaultd binary built beside this one. *)
let daemon_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/anafaultd_main.exe"

(* Start the daemon and wait until it answers a ping; the socket path
   is relative to keep it under the sun_path limit. *)
let spawn dir =
  Util.mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let argv = [| daemon_exe; "--socket"; socket; "--work-dir"; Filename.concat dir "work" |] in
  let pid = Unix.create_process daemon_exe argv Unix.stdin Unix.stderr Unix.stderr in
  let d = { pid; socket; dir } in
  let deadline = Util.now () +. 30.0 in
  let rec ready () =
    match connect socket with
    | c ->
      Fun.protect ~finally:(fun () -> close c) (fun () -> ping c);
      d
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Util.now () < deadline ->
      Thread.delay 0.0001;
      ready ()
  in
  ready ()

let stop d =
  (try
     let c = connect d.socket in
     Fun.protect ~finally:(fun () -> close c) (fun () ->
         send c P.Shutdown;
         ignore (recv c))
   with Unix.Unix_error _ | Failure _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid)

(* {1 Requests} *)

type kind = Fresh | Hit | Extract

let kind_name = function Fresh -> "fresh" | Hit -> "hit" | Extract -> "extract"

type sample = {
  kind : kind;
  sent : float;
  accepted : float;  (** submits: when the accepted event arrived *)
  finished : float;
  faults : int;  (** faults in the answer *)
}

type answer = Table of string | Faults of string

(* Send one request and read its answer: a detection CSV for a
   submit, a ranked fault-list text for an extract. *)
let exchange c req ~faults =
  let sent = Util.now () in
  send c req;
  match req with
  | P.Extract _ -> begin
    let j = recv c in
    match P.extracted_of_json j with
    | Ok (Some e) -> (sent, sent, Util.now (), Ok (Faults e.ex_faults))
    | _ -> (sent, sent, Util.now (), Error (J.to_string j))
  end
  | _ ->
    let rec loop accepted =
      let j = recv c in
      match P.rejected_of_json j with
      | Ok (Some (reason, _)) ->
        (sent, accepted, Util.now (), Error ("rejected: " ^ P.reject_reason_to_string reason))
      | Error e -> (sent, accepted, Util.now (), Error e)
      | Ok None -> begin
        match C.event_of_json ~faults j with
        | Ok (C.Accepted _) -> loop (Util.now ())
        | Ok (C.Finished r) ->
          (sent, accepted, Util.now (), Ok (Table (Anafault.Report.csv_of_results r.results)))
        | Ok (C.Failed { message }) -> (sent, accepted, Util.now (), Error message)
        | Ok (C.Cancelled { reason; _ }) -> (sent, accepted, Util.now (), Error reason)
        | Ok _ -> loop accepted
        | Error e -> (sent, accepted, Util.now (), Error e)
      end
    in
    loop sent

(* {1 The workload} *)

type client = {
  id : int;
  rng : Random.State.t;
  mutable obs : Obs.sink;  (** bench spans around this client's requests *)
  used : (int list, unit) Hashtbl.t;  (** fault subsets sent so far *)
  mutable seen : (C.spec * string) list;
      (** finished fresh specs and their tables, newest first *)
  mutable samples : sample list;
}

let run p =
  let tiny = p.size = Tiny in
  let circuit = Synth.Circuit_synth.rc_ladder ~diodes:true ~sections:(if tiny then 16 else 40) () in
  let tran = { Netlist.Parser.tstep = 1e-7; tstop = 4e-6; uic = false } in
  let deck = Netlist.Printer.deck_to_string ~tran circuit in
  let universe = Array.of_list (Faults.Universe.build circuit) in
  let layouts =
    Array.init 9 (fun k ->
        Layout.Cif.to_string
          (Synth.Layout_synth.vco_array ~rows:3 ~cols:3 ~nudge:(k / 3, k mod 3) ()))
  in
  let extract_refs =
    Array.map
      (fun cif ->
        W_lift.ranked_text
          (Defects.Lift.run
             (Extract.Extractor.extract (Layout.Cif.of_string ~tech:W_lift.tech cif))))
      layouts
  in
  let lift_spec k =
    {
      P.layout = layouts.(k);
      p_min = Defects.Lift.default_options.p_min;
      uniform_pdf = false;
      merge_equivalent = true;
      tile_nm = Synth.Layout_synth.cell_pitch_nm;
    }
  in
  (* A fault subset no client has sent: client [id] only draws subsets
     whose lowest index has [id]'s parity, so the two never collide. *)
  let rec fresh_spec cl =
    let picks = Hashtbl.create 4 in
    while Hashtbl.length picks < 4 do
      Hashtbl.replace picks (Random.State.int cl.rng (Array.length universe)) ()
    done;
    let idx = List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) picks []) in
    if List.hd idx mod 2 <> cl.id || Hashtbl.mem cl.used idx then fresh_spec cl
    else begin
      Hashtbl.replace cl.used idx ();
      {
        C.deck;
        observed = None;
        faults = Faults.Fault_list.to_string (List.map (fun i -> universe.(i)) idx);
        options = C.default_options;
      }
    end
  in
  let next cl =
    let u = Random.State.float cl.rng 1.0 in
    if u < 0.10 then (Extract, `Layout (Random.State.int cl.rng 9))
    else if u < 0.35 || cl.seen = [] then (Fresh, `Spec (fresh_spec cl))
    else
      let spec, table = List.nth cl.seen (Random.State.int cl.rng (List.length cl.seen)) in
      (Hit, `Twin (spec, table))
  in
  let checks = checks () in
  let lock = Mutex.create () in
  let check what ok = Mutex.protect lock (fun () -> check checks what ok) in
  (* One request from [cl] over [c]; returns the faults answered. *)
  let one cl c =
    let kind, what = next cl in
    let submit spec =
      ( P.Submit { spec; client = None; deadline_s = None },
        Array.of_list (Faults.Fault_list.of_string spec.C.faults) )
    in
    let req, faults =
      match what with
      | `Layout k -> (P.Extract { lift = lift_spec k; simulate = None; client = None; deadline_s = None }, [||])
      | `Spec spec | `Twin (spec, _) -> submit spec
    in
    let sent, accepted, finished, answer =
      Obs.span cl.obs ("bench.daemon." ^ kind_name kind) (fun _ -> exchange c req ~faults)
    in
    let nfaults =
      match (answer, what) with
      | Error e, _ ->
        check (kind_name kind ^ " request: " ^ e) false;
        0
      | Ok (Faults got), `Layout k ->
        check "extract equals serial Lift.run" (got = extract_refs.(k));
        List.length (Faults.Fault_list.of_string got)
      | Ok (Table csv), `Spec spec ->
        cl.seen <- (spec, csv) :: cl.seen;
        check "fresh request answered" true;
        Array.length faults
      | Ok (Table csv), `Twin (_, table) ->
        check "hit equals its fresh twin" (csv = table);
        Array.length faults
      | Ok _, _ ->
        check "answer of the wrong shape" false;
        0
    in
    cl.samples <- { kind; sent; accepted; finished; faults = nfaults } :: cl.samples
  in
  let clients =
    List.init 2 (fun id ->
        {
          id;
          rng = Random.State.make [| p.seed; id |];
          obs = (if p.trace then Obs.memory () else Obs.null);
          used = Hashtbl.create 1024;
          seen = [];
          samples = [];
        })
  in
  (* Both clients, each on its own connection and thread, until
     [stop ()] holds before a request. *)
  let drive socket ~stop =
    let threads =
      List.map
        (fun cl ->
          Thread.create
            (fun () ->
              let c = connect socket in
              Fun.protect ~finally:(fun () -> close c) (fun () ->
                  let n = ref 0 in
                  while not (stop !n) do
                    one cl c;
                    incr n
                  done))
            ())
        clients
    in
    List.iter Thread.join threads
  in
  (* Set-ups start and stop throwaway daemons in their own directory, at
     four points of the run. *)
  let setup_s = ref [] in
  let setups () =
    let dir = Filename.concat p.work_dir "setup" in
    setups setup_s
      ~after:(fun d ->
        stop d;
        Util.rm_rf dir)
      (fun () -> spawn dir)
  in
  setups ();
  let dir = Filename.concat p.work_dir "daemon" in
  let d = spawn dir in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  (* Extract every layout once, one at a time, before the clients
     start: two extractions running at once in the daemon can collide
     on a stage-artefact temporary file (see README.md), so the mix only
     ever asks for layouts whose answer is already cached. *)
  (let c = connect d.socket in
   Fun.protect ~finally:(fun () -> close c) (fun () ->
       Array.iteri
         (fun k want ->
           let req =
             P.Extract { lift = lift_spec k; simulate = None; client = None; deadline_s = None }
           in
           match exchange c req ~faults:[||] with
           | _, _, _, Ok (Faults got) -> check "extract equals serial Lift.run" (got = want)
           | _, _, _, (Ok (Table _) | Error _) -> check "extract request" false)
         extract_refs));
  (* Protocol round trips on an idle daemon, untraced then traced. *)
  let npings = if tiny then 50 else 500 in
  let pings obs =
    let c = connect d.socket in
    Fun.protect ~finally:(fun () -> close c) (fun () ->
        List.init npings (fun _ ->
            snd (Util.time (fun () -> Obs.span obs "bench.daemon.ping" (fun _ -> ping c)))))
  in
  let ping_s = pings Obs.null in
  let traced_ping_s = if p.trace then pings (List.hd clients).obs else [] in
  setups ();
  (* Warm-up, and the traced run when tracing: the first requests of
     each client's stream. *)
  let warm = if tiny then 5 else 50 in
  let gc0 = Gc.quick_stat () in
  drive d.socket ~stop:(fun n -> n >= warm);
  let gc1 = Gc.quick_stat () in
  setups ();
  let warm_faults =
    List.fold_left (fun a cl -> List.fold_left (fun a s -> a + s.faults) a cl.samples) 0 clients
  in
  let events = List.concat_map (fun cl -> Obs.drain cl.obs) clients in
  List.iter
    (fun cl ->
      cl.samples <- [];
      cl.obs <- Obs.null)
    clients;
  let t0 = Util.now () in
  let deadline = t0 +. p.seconds in
  drive d.socket ~stop:(fun _ -> Util.now () >= deadline);
  let elapsed = Util.now () -. t0 in
  setups ();
  let samples = List.concat_map (fun cl -> cl.samples) clients in
  let stats =
    let c = connect d.socket in
    Fun.protect ~finally:(fun () -> close c) (fun () ->
        send c P.Stats;
        recv c)
  in
  let rss_mb = Util.peak_rss_mb (string_of_int d.pid) in
  let work = Filename.concat dir "work" in
  let cache_bytes = Util.du (Filename.concat work "cache") in
  let wal_bytes = Util.du (Filename.concat work "queue.wal") in
  (* The first fresh answers of each client against in-process runs. *)
  List.iter
    (fun cl ->
      List.iteri
        (fun i (spec, csv) ->
          if i < 10 then
            match C.compile spec with
            | Error e -> check ("reference compile: " ^ e) false
            | Ok compiled ->
              let local = C.run_local compiled in
              check "fresh equals in-process run_local"
                (Anafault.Report.csv_of_results local.result.results = csv))
        (List.rev cl.seen))
    clients;
  let stat name =
    match stats with
    | J.Obj fs -> ( match List.assoc_opt name fs with Some (J.Int n) -> n | _ -> 0)
    | _ -> 0
  in
  let latencies = List.map (fun s -> (kind_name s.kind, s.finished -. s.sent)) samples in
  let of_kind k f = List.filter_map (fun s -> if s.kind = k then Some (f s) else None) samples in
  let ms xs q = 1000.0 *. Stats.percentile q xs in
  let hit_total = of_kind Hit (fun s -> s.finished -. s.sent) in
  let submits = stat "jobs" + stat "cache_hits" + stat "coalesced" in
  let layers =
    if not p.trace then []
    else
      [
        metric "trace.overhead_frac" "fraction"
          ((Stats.median traced_ping_s /. Stats.median ping_s) -. 1.0);
        metric "protocol.ping_ms_p50" "ms" (ms ping_s 0.5);
        metric "daemon.admit_ms_p50" "ms" (ms (of_kind Fresh (fun s -> s.accepted -. s.sent)) 0.5);
        metric "daemon.run_ms_p50" "ms" (ms (of_kind Fresh (fun s -> s.finished -. s.accepted)) 0.5);
        metric "daemon.hit_ratio" "fraction" (ratio (float_of_int (stat "cache_hits")) (float_of_int submits));
        count "daemon.faults_simulated" (stat "faults_simulated");
        count "daemon.coalesced" (stat "coalesced");
        count "daemon.extract_hits" (stat "extract_hits");
        count "daemon.rejected" (stat "rejected");
        metric "daemon.cache_bytes" "bytes" (float_of_int cache_bytes);
        metric "daemon.wal_bytes" "bytes" (float_of_int wal_bytes);
        metric "job_p90_ms" "ms" (ms (of_kind Fresh (fun s -> s.finished -. s.sent)) 0.9);
        metric "hit_p50_ms" "ms" (ms hit_total 0.5);
        metric "hit_p95_ms" "ms" (ms hit_total 0.95);
        metric "gc.alloc_mb_per_fault" "MB/fault"
          (alloc_mb gc0 gc1 /. float_of_int (max 1 warm_faults));
        count "gc.major_collections" (gc1.major_collections - gc0.major_collections);
      ]
  in
  {
    setup = List.rev !setup_s;
    latencies;
    latency_kinds = [ "fresh" ];
    work = float_of_int (List.length samples);
    elapsed;
    rss_mb;
    layers;
    events;
    attempted = checks.attempted;
    failed = checks.failed;
  }
