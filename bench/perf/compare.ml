(* perf.exe compare OLD NEW: judge every end-to-end metric on every
   workload between two sets of runs.

   A set is a directory of BENCH_<workload>.json records (one run) or a
   directory of such directories (one run each).  For each (metric,
   workload) the verdict is
     unresolved  the run-to-run spread (interquartile range over the
                 median, on either side) is wider than the bound -
                 unless every new run beats every old run, which is
                 better.  setup_s is exempt: each run's value is
                 already a median of many set-ups, and millisecond
                 process start-ups spread widely from run to run, so
                 only its median is judged, as the benchmark's own
                 acceptance rule does;
     worse       the new median is worse than the old by more than the
                 bound;
     better      the new median is better by more than the bound;
     same        otherwise.
   With at least ten runs a side, pair run i with run i and also report
   the claim rule: the new side wins at least nine pairs in ten and the
   medians differ by more than the old side's interquartile range.
   Work counters that should repeat exactly are listed when they
   differ.  The exit code is 1 on any "worse" verdict or on any record
   with failed operations. *)

module J = Obs.Json

type bound = { better_higher : bool; bound : float }

(* The end-to-end metrics' directions and bounds, from BENCHMARK.json
   (compare runs from the repository root). *)
let bounds file =
  match J.of_string (Util.read_file file) with
  | Error e -> Util.fail "%s: %s" file e
  | Ok j -> begin
    match Record.field "end_to_end" j with
    | Some (J.List ms) ->
      List.filter_map
        (fun m ->
          match (Record.field "name" m, Record.field "better" m, Record.field "bound" m) with
          | Some (J.String n), Some (J.String b), Some x ->
            Option.map
              (fun bound -> (n, { better_higher = b = "higher"; bound }))
              (Record.num x)
          | _ -> None)
        ms
    | _ -> Util.fail "%s has no end_to_end list" file
  end

let records dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter_map (fun n ->
         if String.starts_with ~prefix:"BENCH_" n && Filename.check_suffix n ".json" then
           Some (Record.read (Filename.concat dir n))
         else None)

(* The runs of a set, each a list of records. *)
let runs dir =
  match records dir with
  | _ :: _ as rs -> [ rs ]
  | [] ->
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.map (Filename.concat dir)
    |> List.filter Sys.is_directory |> List.map records
    |> List.filter (fun rs -> rs <> [])

let values runs workload pick =
  List.filter_map
    (fun rs ->
      Option.bind
        (List.find_opt (fun (r : Record.t) -> r.workload = workload) rs)
        pick)
    runs

(* Metrics whose value is a count of work done: they must repeat
   exactly between runs of one seed and one commit. *)
let work_counter name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "engine."; "solver."; "session."; "pipeline.computed"; "pipeline.cached"; "simulate.drop_frac"; "simulate.retries" ]
  && not (String.ends_with ~suffix:"_s" name || String.ends_with ~suffix:"_share" name)

let verdict name b old_vs new_vs =
  let mo = Stats.median old_vs and mn = Stats.median new_vs in
  let worse_by = (if b.better_higher then mo -. mn else mn -. mo) /. Float.abs mo in
  let beats x y = if b.better_higher then x > y else x < y in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> beats n o) old_vs) new_vs
  in
  let spread = Float.max (Stats.spread old_vs) (Stats.spread new_vs) in
  if spread > b.bound && name <> "setup_s" then
    if all_better && List.length old_vs > 1 then "better" else "unresolved"
  else if worse_by > b.bound then "worse"
  else if worse_by < -.b.bound then "better"
  else "same"

(* The claim rule over paired runs. *)
let claim b old_vs new_vs =
  let pairs = List.combine old_vs new_vs in
  let wins =
    List.length
      (List.filter (fun (o, n) -> if b.better_higher then n > o else n < o) pairs)
  in
  let q1, q3 = Stats.quartiles old_vs in
  let gap = Float.abs (Stats.median new_vs -. Stats.median old_vs) in
  ( wins,
    List.length pairs,
    10 * wins >= 9 * List.length pairs && gap > q3 -. q1 )

let run old_dir new_dir =
  let bounds = bounds "BENCHMARK.json" in
  let old_runs = runs old_dir and new_runs = runs new_dir in
  if old_runs = [] || new_runs = [] then Util.fail "no BENCH records under %s or %s" old_dir new_dir;
  let workloads =
    List.sort_uniq String.compare
      (List.concat_map (List.map (fun (r : Record.t) -> r.workload)) (old_runs @ new_runs))
  in
  let paired = min (List.length old_runs) (List.length new_runs) >= 10 in
  Printf.printf "old: %s (%d runs)   new: %s (%d runs)\n\n" old_dir (List.length old_runs)
    new_dir (List.length new_runs);
  Printf.printf "%-14s %-18s %-31s %-31s %8s  %s\n" "workload" "metric"
    "old median [q1, q3]" "new median [q1, q3]" "change" "verdict";
  let show xs =
    let q1, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median xs) q1 q3
  in
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (name, b) ->
          let pick (r : Record.t) = Option.map snd (List.assoc_opt name r.e2e) in
          let ov = values old_runs w pick and nv = values new_runs w pick in
          if ov <> [] && nv <> [] then begin
            let v = verdict name b ov nv in
            if v = "worse" then incr worse;
            let change = (Stats.median nv /. Stats.median ov) -. 1.0 in
            Printf.printf "%-14s %-18s %-31s %-31s %+7.1f%%  %s" w name (show ov) (show nv)
              (100.0 *. change) v;
            if paired then begin
              let wins, n, ok = claim b ov nv in
              Printf.printf "  (new wins %d/%d pairs%s)" wins n (if ok then ", claim holds" else "")
            end;
            print_newline ()
          end)
        bounds)
    workloads;
  (* Work counters. *)
  let differing =
    List.concat_map
      (fun w ->
        let names =
          List.sort_uniq String.compare
            (List.concat_map
               (fun rs ->
                 List.concat_map
                   (fun (r : Record.t) ->
                     if r.workload = w then List.map fst r.layers else [])
                   rs)
               (old_runs @ new_runs))
        in
        List.filter_map
          (fun name ->
            if not (work_counter name) then None
            else
              let vs =
                values (old_runs @ new_runs) w (fun r ->
                    Option.map snd (List.assoc_opt name r.layers))
              in
              match List.sort_uniq Float.compare vs with
              | [] | [ _ ] -> None
              | distinct -> Some (w, name, distinct))
          names)
      workloads
  in
  Printf.printf "\nwork counters: %s\n"
    (if differing = [] then "every one repeats exactly" else "some differ");
  List.iter
    (fun (w, name, vs) ->
      Printf.printf "  %-14s %-32s %s\n" w name
        (String.concat " " (List.map (Printf.sprintf "%.6g") vs)))
    differing;
  let failed =
    List.fold_left
      (fun acc rs -> List.fold_left (fun acc (r : Record.t) -> acc + r.failed) acc rs)
      0 (old_runs @ new_runs)
  in
  if failed > 0 then Printf.printf "\n%d failed operations recorded: error_rate > 0\n" failed;
  if !worse > 0 || failed > 0 then 1 else 0
