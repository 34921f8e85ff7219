(* The repository benchmark: four workloads that drive the program from
   outside, timed end to end and broken down per layer.  See README.md.

     perf.exe bench --workload W --seed N --seconds S --trace 0|1
                    [--out DIR] [--size full|tiny]
     perf.exe run --seed N --out DIR [--seconds S]
     perf.exe compare OLD_DIR NEW_DIR
     perf.exe golden FILE
     perf.exe smoke BENCHMARK_JSON *)

module J = Obs.Json

let workloads = [ "vco_universe"; "grid_sparse"; "lift_array"; "daemon_mix" ]

let usage () =
  prerr_endline
    "usage: perf.exe bench --workload W --seed N --seconds S --trace 0|1\n\
    \                      [--out DIR] [--size full|tiny]\n\
    \       perf.exe run --seed N --out DIR [--seconds S]\n\
    \       perf.exe compare OLD_DIR NEW_DIR\n\
    \       perf.exe golden FILE\n\
    \       perf.exe smoke BENCHMARK_JSON";
  exit 2

(* "--flag value" pairs. *)
let rec flags = function
  | [] -> []
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
    (String.sub k 2 (String.length k - 2), v) :: flags rest
  | arg :: _ ->
    Printf.eprintf "perf: unexpected argument %S\n" arg;
    usage ()

let flag fs name ~default =
  match List.assoc_opt name fs with Some v -> v | None -> default

let required fs name =
  match List.assoc_opt name fs with
  | Some v -> v
  | None ->
    Printf.eprintf "perf: --%s is required\n" name;
    usage ()

let number of_string fs name =
  let v = required fs name in
  match of_string v with
  | Some n -> n
  | None ->
    Printf.eprintf "perf: --%s wants a number, got %S\n" name v;
    usage ()

(* Scratch space of the benchmark, relative to where it runs. *)
let work_root = "perf-work"

let size_of_string = function
  | "full" -> Workload.Full
  | "tiny" -> Workload.Tiny
  | s ->
    Printf.eprintf "perf: --size is full or tiny, got %S\n" s;
    usage ()

let run_workload (p : Workload.params) = function
  | "vco_universe" -> W_campaign.run p (W_campaign.vco p.size)
  | "grid_sparse" -> W_campaign.run p (W_campaign.grid p.size)
  | "lift_array" -> W_lift.run p
  | "daemon_mix" -> W_daemon.run p
  | w ->
    Printf.eprintf "perf: unknown workload %S (one of %s)\n" w
      (String.concat ", " workloads);
    usage ()

let metrics_json ms =
  J.Obj
    (List.map
       (fun (m : Workload.metric) ->
         (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit) ]))
       ms)

let print_metrics ms =
  List.iter
    (fun (m : Workload.metric) ->
      Printf.eprintf "  %-36s %14.6g %s\n" m.name m.value m.unit)
    ms

let bench fs =
  let workload = required fs "workload" in
  let seed = number int_of_string_opt fs "seed" in
  let seconds = number float_of_string_opt fs "seconds" in
  let trace = required fs "trace" = "1" in
  let size = size_of_string (flag fs "size" ~default:"full") in
  let p =
    {
      Workload.seed;
      seconds;
      trace;
      size;
      work_dir = Filename.concat work_root (string_of_int (Unix.getpid ()));
    }
  in
  Util.mkdir_p p.work_dir;
  let o =
    Fun.protect
      ~finally:(fun () ->
        Util.rm_rf p.work_dir;
        try Unix.rmdir (Filename.dirname p.work_dir) with Unix.Unix_error _ -> ())
    @@ fun () -> run_workload p workload
  in
  let e2e = Catalogue.complete Catalogue.end_to_end workload (Workload.end_to_end o) in
  let o =
    if not trace then o
    else
      let error_rate =
        Workload.metric "error_rate" "fraction"
          (float_of_int o.failed /. float_of_int (max 1 o.attempted))
      in
      { o with layers = Catalogue.complete Catalogue.per_layer workload (error_rate :: o.layers) }
  in
  Printf.eprintf "%s (seed %d): %d checked, %d failed\n" workload seed o.attempted
    o.failed;
  print_metrics (e2e @ o.layers);
  Option.iter
    (fun dir ->
      Record.write ~dir ~workload ~seed ~seconds ~size:(flag fs "size" ~default:"full")
        ~commit:(flag fs "commit" ~default:"unknown") o e2e)
    (List.assoc_opt "out" fs);
  let result =
    J.Obj
      [
        ("correct", J.Bool (o.failed = 0));
        ("attempted", J.Int o.attempted);
        ("failed", J.Int o.failed);
        ("metrics", metrics_json (if trace then o.layers else e2e));
      ]
  in
  print_endline (J.to_string result)

(* The commit under test, marked when the tree has local changes. *)
let commit () =
  let read cmd =
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None
  in
  match read "git rev-parse --short HEAD" with
  | None -> "unknown"
  | Some head -> (
    match read "git status --porcelain" with
    | Some "" -> head
    | _ -> head ^ "-dirty")

(* One child process per workload, so peak RSS and GC state belong to
   that workload alone; each writes DIR/BENCH_<workload>.json. *)
let run_all ?(log = Unix.stderr) ~seed ~seconds ~size ~out names =
  let commit = commit () in
  List.map
    (fun w ->
      let argv =
        Array.of_list
          ([ Sys.executable_name; "bench"; "--workload"; w; "--seed"; string_of_int seed;
             "--seconds"; seconds; "--trace"; "1"; "--size"; size; "--out"; out;
             "--commit"; commit ])
      in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin log log
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> (w, true)
      | _ ->
        Printf.eprintf "perf: workload %s failed\n%!" w;
        (w, false))
    names

let run fs =
  let seed = number int_of_string_opt fs "seed" in
  let out = required fs "out" in
  let results =
    run_all ~seed ~seconds:(flag fs "seconds" ~default:"20") ~size:"full" ~out workloads
  in
  let ok = ref (List.for_all snd results) in
  List.iter
    (fun (w, _) ->
      let file = Record.path ~dir:out w in
      if Sys.file_exists file then begin
        let r = Record.read file in
        if r.failed > 0 then ok := false;
        Printf.printf "%s: %d failed\n" w r.failed;
        List.iter (fun (n, (u, x)) -> Printf.printf "  %-36s %14.6g %s\n" n x u) r.e2e
      end)
    results;
  exit (if !ok then 0 else 1)

(* Reference digests of both campaign workloads at both sizes, from the
   width-1 (per-fault serial) path in canonical fault order. *)
let golden file =
  let entries =
    List.concat_map
      (fun (mk : Workload.size -> W_campaign.t) ->
        List.map
          (fun size ->
            let t = mk size in
            ( t.name ^ "." ^ W_campaign.size_key size,
              J.String (W_campaign.reference_digest t) ))
          [ Workload.Full; Workload.Tiny ])
      [ W_campaign.vco; W_campaign.grid ]
  in
  Util.write_file file (J.to_string (J.Obj entries) ^ "\n")

(* {1 Smoke test} *)

(* name, unit pairs of one BENCHMARK.json metric list *)
let declared j key =
  match Record.field key j with
  | Some (J.List ms) ->
    List.map
      (fun m ->
        match (Record.field "name" m, Record.field "unit" m) with
        | Some (J.String n), Some (J.String u) -> (n, u)
        | _ -> Util.fail "BENCHMARK.json: malformed %s entry" key)
      ms
  | _ -> Util.fail "BENCHMARK.json: no %s list" key

(* The last line a [bench] run prints, parsed. *)
let result_line ~log argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w log in
  Unix.close w;
  let lines = In_channel.input_lines (Unix.in_channel_of_descr r) in
  Unix.close r;
  match (snd (Unix.waitpid [] pid), List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
    match J.of_string last with Ok j -> j | Error e -> Util.fail "result line: %s" e)
  | _ -> Util.fail "bench run failed"

(* Every workload at tiny size: the metric catalogue must match
   BENCHMARK.json, every record must carry every metric with its unit
   (end-to-end ones nonzero) and no failed operation, every trace file
   must parse, and the [bench] result line must have its exact
   shape. *)
let smoke benchmark =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let spec =
    match J.of_string (Util.read_file benchmark) with
    | Ok j -> j
    | Error e -> Util.fail "%s: %s" benchmark e
  in
  let names ms = List.map (fun (n, u, _) -> (n, u)) ms in
  if declared spec "end_to_end" <> names Catalogue.end_to_end then
    error "BENCHMARK.json end_to_end differs from the catalogue";
  if declared spec "per_layer" <> names Catalogue.per_layer then
    error "BENCHMARK.json per_layer differs from the catalogue";
  (match Record.field "workloads" spec with
  | Some (J.List ws) ->
    if List.filter_map (Record.field "name") ws <> List.map (fun w -> J.String w) workloads
    then error "BENCHMARK.json workloads differ from the benchmark's"
  | _ -> error "BENCHMARK.json has no workloads");
  let out = Filename.concat work_root "smoke" in
  Util.rm_rf out;
  Util.mkdir_p out;
  let log_path = Filename.concat out "smoke.log" in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close log) @@ fun () ->
  let results = run_all ~log ~seed:1 ~seconds:"0.2" ~size:"tiny" ~out workloads in
  List.iter
    (fun (w, ok) ->
      if not ok then error "%s: run failed" w
      else begin
        let r = Record.read (Record.path ~dir:out w) in
        if r.failed > 0 then error "%s: %d failed operations" w r.failed;
        let expect block catalogue ~nonzero =
          List.iter
            (fun (name, unit, _) ->
              match List.assoc_opt name block with
              | None -> error "%s: no %s" w name
              | Some (u, _) when u <> unit -> error "%s: %s in %s, not %s" w name u unit
              | Some (_, x) when Float.is_nan x || (nonzero && x = 0.0) ->
                error "%s: %s = %g" w name x
              | Some _ -> ())
            catalogue
        in
        expect r.e2e Catalogue.end_to_end ~nonzero:true;
        expect r.layers Catalogue.per_layer ~nonzero:false;
        match Obs.Jsonl.read_file (Filename.concat out ("BENCH_" ^ w ^ ".trace.jsonl")) with
        | Ok (_ :: _) -> ()
        | Ok [] -> error "%s: empty trace" w
        | Error e -> error "%s: trace does not parse: %s" w e
      end)
    results;
  List.iter
    (fun (trace, catalogue) ->
      let j =
        result_line ~log
          [| Sys.executable_name; "bench"; "--workload"; "grid_sparse"; "--seed"; "2";
             "--seconds"; "0.2"; "--trace"; trace; "--size"; "tiny" |]
      in
      match j with
      | J.Obj [ ("correct", J.Bool true); ("attempted", J.Int n); ("failed", J.Int 0);
                ("metrics", J.Obj ms) ]
        when n > 0 ->
        let got =
          List.map
            (fun (k, v) ->
              (k, match Record.field "unit" v with Some (J.String u) -> u | _ -> "?"))
            ms
        in
        if got <> names catalogue then error "trace %s result line: wrong metrics" trace
      | _ -> error "trace %s result line: %s" trace (J.to_string j))
    [ ("0", Catalogue.end_to_end); ("1", Catalogue.per_layer) ];
  let log_text = Util.read_file log_path in
  Util.rm_rf out;
  (try Unix.rmdir work_root with Unix.Unix_error _ -> ());
  match !errors with
  | [] -> print_endline "perf smoke ok"
  | es ->
    prerr_string log_text;
    List.iter (Printf.eprintf "perf smoke: %s\n") (List.rev es);
    exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "bench" :: rest -> bench (flags rest)
  | "run" :: rest -> run (flags rest)
  | [ "compare"; old_dir; new_dir ] -> exit (Compare.run old_dir new_dir)
  | [ "golden"; file ] -> golden file
  | [ "smoke"; benchmark ] -> smoke benchmark
  | _ -> usage ()
