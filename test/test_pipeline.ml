(* The staged pipeline's contract: byte-identical to the serial
   [Extractor.extract |> Lift.run] whatever the tile size, domain count
   or cache state - and after a one-tile edit, a cached re-run
   recomputes only the dirty tile. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let temp_dir () =
  let dir = Filename.temp_file "liftpipe" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* The serial reference: ranked fault-list text straight through the
   monolithic path. *)
let serial_text ?(options = Defects.Lift.default_options) mask =
  let ext = Extract.Extractor.extract mask in
  let result = Defects.Lift.run ~options ext in
  Faults.Fault_list.to_string (Defects.Lift.ranked result)

let pipeline_run ?(tile = Synth.Layout_synth.cell_pitch_nm) ?(domains = 1)
    ?cache ?(options = Defects.Lift.default_options) mask =
  let config =
    { Defects.Pipeline.tile_nm = tile; domains; cache_dir = cache;
      obs = Obs.null; options }
  in
  Defects.Pipeline.run ~config mask

let pipeline_text ?tile ?domains ?cache ?options mask =
  let { Defects.Pipeline.result; _ } =
    pipeline_run ?tile ?domains ?cache ?options mask
  in
  Faults.Fault_list.to_string (Defects.Lift.ranked result)

let tiling_tests =
  let open Geom in
  [
    Alcotest.test_case "count and clipped high row" `Quick (fun () ->
        let t = Tiling.create ~tile_nm:10 (Rect.make 0 0 25 15) in
        check_int "count" (3 * 2) (Tiling.count t);
        (* High row/column cells are clipped to the box. *)
        check_bool "clipped" true
          (Rect.equal (Tiling.rect t (Tiling.count t - 1)) (Rect.make 20 10 25 15)));
    Alcotest.test_case "tile_nm <= 0 is one tile" `Quick (fun () ->
        let box = Rect.make (-5) (-5) 100 40 in
        let t = Tiling.create ~tile_nm:0 box in
        check_int "count" 1 (Tiling.count t);
        check_bool "cell is box" true (Rect.equal (Tiling.rect t 0) box));
    Alcotest.test_case "owner partitions the box" `Quick (fun () ->
        let t = Tiling.create ~tile_nm:7 (Rect.make 0 0 20 20) in
        (* Every point owned by exactly one tile, and that tile's cell
           contains the point (half-open, so strictly inside works). *)
        for x = 0 to 19 do
          for y = 0 to 19 do
            let i = Tiling.owner t ~x ~y in
            let r = Tiling.rect t i in
            check_bool "inside" true
              Geom.Rect.(x >= r.x0 && x < r.x1 && y >= r.y0 && y < r.y1)
          done
        done;
        (* Points outside clamp to border tiles - owner stays total. *)
        check_int "clamp low" (Tiling.owner t ~x:0 ~y:0)
          (Tiling.owner t ~x:(-100) ~y:(-100)));
    Alcotest.test_case "covering lists exactly the watching windows" `Quick
      (fun () ->
        let t = Tiling.create ~tile_nm:10 (Rect.make 0 0 30 30) in
        let margin = 3 in
        let r = Rect.make 11 11 12 12 in
        let cov = Tiling.covering t ~margin r in
        List.iter
          (fun i ->
            check_bool "touches window" true
              (Rect.touches (Tiling.window t ~margin i) r))
          cov;
        (* Near a cell corner, all four neighbouring windows reach it. *)
        check_int "corner watchers" 4 (List.length cov);
        (* A shape deeper than margin inside one cell is seen by that
           cell alone. *)
        let deep = Rect.make 14 14 16 16 in
        check_bool "single watcher" true
          (Tiling.covering t ~margin deep = [ Tiling.owner t ~x:14 ~y:14 ]));
  ]

let pool_tests =
  [
    Alcotest.test_case "map is Array.init whatever the width" `Quick (fun () ->
        let f i = (i * 7) mod 13 in
        let expect = Array.init 100 f in
        List.iter
          (fun domains ->
            check_bool "same" true (Pool.map ~domains f 100 = expect))
          [ 1; 2; 4 ]);
    Alcotest.test_case "map n=0" `Quick (fun () ->
        check_int "empty" 0 (Array.length (Pool.map ~domains:4 Fun.id 0)));
    Alcotest.test_case "exceptions re-raised after join" `Quick (fun () ->
        check_bool "raises" true
          (try
             ignore
               (Pool.map ~domains:2
                  (fun i -> if i = 17 then failwith "boom" else i)
                  64);
             false
           with Failure msg -> msg = "boom"));
    Alcotest.test_case "width 1 runs every chunk in the caller, in order" `Quick
      (fun () ->
        let seen = ref [] in
        let reports =
          Pool.run ~domains:1 ~chunk:3
            ~setup:(fun d -> d)
            (fun d lo hi -> seen := (d, lo, hi) :: !seen)
            8
        in
        check_bool "chunks" true
          (List.rev !seen = [ (0, 0, 3); (0, 3, 6); (0, 6, 8) ]);
        check_bool "one report" true
          (match reports with [ { Pool.domain = 0; chunks = 3; died = false; _ } ] -> true | _ -> false));
    Alcotest.test_case "a failed setup or Died kills only that domain" `Quick
      (fun () ->
        let check label ~setup ~task =
          let finished = Array.make 50 false in
          let reports =
            Pool.run ~domains:2 ~chunk:1 ~setup
              (fun d lo _ ->
                finished.(lo) <- true;
                task d)
              50
          in
          check_bool (label ^ ": only domain 1 died") true
            (List.map (fun (r : Pool.report) -> (r.domain, r.died)) reports
            = [ (0, false); (1, true) ]);
          check_bool (label ^ ": the survivor drains the range") true
            (Array.for_all Fun.id finished)
        in
        check "setup" ~setup:(fun d -> if d = 1 then failwith "no session" else d)
          ~task:ignore;
        (* Domain 0 holds its first chunk until domain 1 has died, so
           domain 1 is sure to claim one. *)
        let gone = Atomic.make false in
        check "Died" ~setup:Fun.id ~task:(fun d ->
            if d = 1 then begin
              Atomic.set gone true;
              raise Pool.Died
            end
            else
              while not (Atomic.get gone) do
                Domain.cpu_relax ()
              done));
    Alcotest.test_case "stop is checked before every claim" `Quick (fun () ->
        let claimed = ref 0 in
        let reports =
          Pool.run
            ~stop:(fun () -> !claimed >= 4)
            ~domains:1 ~chunk:2 ~setup:ignore
            (fun () _ _ -> incr claimed)
            100
        in
        check_int "claims" 4 !claimed;
        check_bool "not a death" true
          (List.for_all (fun (r : Pool.report) -> not r.died) reports));
  ]

let parity_tests =
  [
    Alcotest.test_case "vco array: tiled+parallel equals serial" `Quick
      (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:2 ~cols:3 () in
        let reference = serial_text mask in
        check_str "tile=pitch" reference (pipeline_text mask);
        check_str "domains=2" reference (pipeline_text ~domains:2 mask);
        (* An unaligned tile size must not change a byte either. *)
        check_str "tile=27um" reference (pipeline_text ~tile:27_000 mask);
        check_str "one tile" reference (pipeline_text ~tile:0 mask));
    Alcotest.test_case "mesh: tiled equals serial" `Quick (fun () ->
        let mask = Synth.Layout_synth.mesh ~rows:6 ~cols:6 () in
        let reference = serial_text mask in
        check_str "tiled" reference (pipeline_text ~tile:25_000 ~domains:2 mask));
    Alcotest.test_case "options thread through" `Quick (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:1 ~cols:2 () in
        let tech = Layout.Tech.default in
        let options =
          {
            Defects.Lift.pdf =
              Some
                (Geom.Critical_area.Uniform
                   {
                     x_min = float_of_int tech.Layout.Tech.defect_x_min;
                     x_max = float_of_int tech.Layout.Tech.defect_x_max;
                   });
            p_min = 1e-9;
            merge_equivalent = false;
          }
        in
        check_str "uniform pdf" (serial_text ~options mask)
          (pipeline_text ~options mask));
  ]

let all_cached c =
  let open Defects.Pipeline in
  c.connectivity.computed = 0 && c.sites.computed = 0
  && c.critical_area.computed = 0
  && c.connectivity.cached = c.tiles
  && c.sites.cached = c.tiles
  && c.critical_area.cached = c.tiles

let cache_tests =
  [
    Alcotest.test_case "second run is a 100% cache hit" `Quick (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 () in
        let cache = Some (temp_dir ()) in
        let cold = pipeline_run ?cache mask in
        let open Defects.Pipeline in
        check_int "cold computes all" cold.counters.tiles
          cold.counters.connectivity.computed;
        check_int "cold hits none" 0 cold.counters.connectivity.cached;
        let warm = pipeline_run ?cache mask in
        check_bool "warm all cached" true (all_cached warm.counters);
        check_str "same bytes"
          (Faults.Fault_list.to_string (Defects.Lift.ranked cold.result))
          (Faults.Fault_list.to_string (Defects.Lift.ranked warm.result)));
    Alcotest.test_case "one-tile edit recomputes only the dirty tile" `Quick
      (fun () ->
        let cache = Some (temp_dir ()) in
        let base = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 () in
        ignore (pipeline_run ?cache base);
        let edited = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 ~nudge:(1, 1) () in
        let incr = pipeline_run ?cache edited in
        let open Defects.Pipeline in
        let c = incr.counters in
        (* The nudged strap lives deeper than the margin inside cell
           (1,1): every stage recomputes that tile and no other.  (The
           grid anchors on the layout hull, so the tile count exceeds
           the 2x2 cell count - the dirty-tile count must not.) *)
        check_int "conn computed" 1 c.connectivity.computed;
        check_int "conn cached" (c.tiles - 1) c.connectivity.cached;
        check_int "sites computed" 1 c.sites.computed;
        check_int "sites cached" (c.tiles - 1) c.sites.cached;
        check_int "ca computed" 1 c.critical_area.computed;
        check_int "ca cached" (c.tiles - 1) c.critical_area.cached;
        (* And the incremental answer matches a cold serial run of the
           edited layout, byte for byte. *)
        check_str "parity" (serial_text edited)
          (Faults.Fault_list.to_string (Defects.Lift.ranked incr.result)));
    Alcotest.test_case "concurrent cold runs share one cache dir" `Quick
      (fun () ->
        (* Threads of one domain writing the same artefacts at once (the
           daemon's handler threads extracting one layout): every write
           must use its own temporary file. *)
        let dir = temp_dir () in
        let mask = Synth.Layout_synth.vco_array ~rows:3 ~cols:3 () in
        let reference = serial_text mask in
        let answers = Array.make 6 (Error "not run") in
        let threads =
          Array.to_list
            (Array.mapi
               (fun i _ ->
                 Thread.create
                   (fun () ->
                     answers.(i) <-
                       (match pipeline_text ~cache:dir mask with
                       | text -> Ok text
                       | exception exn -> Error (Printexc.to_string exn)))
                   ())
               answers)
        in
        List.iter Thread.join threads;
        Array.iter
          (function
            | Ok text -> check_str "parity" reference text
            | Error msg -> Alcotest.fail msg)
          answers);
    Alcotest.test_case "corrupt artefact is a miss, not an error" `Quick
      (fun () ->
        let dir = temp_dir () in
        let mask = Synth.Layout_synth.vco_array ~rows:1 ~cols:2 () in
        ignore (pipeline_run ~cache:dir mask);
        (* Truncate every stored artefact; the pipeline must fall back
           to recomputing and still produce the right bytes. *)
        let rec clobber d =
          Array.iter
            (fun name ->
              let path = Filename.concat d name in
              if Sys.is_directory path then clobber path
              else begin
                let oc = open_out path in
                output_string oc "torn";
                close_out oc
              end)
            (Sys.readdir d)
        in
        clobber dir;
        let redo = pipeline_run ~cache:dir mask in
        check_int "recomputed" 0 redo.Defects.Pipeline.counters.Defects.Pipeline.connectivity.Defects.Pipeline.cached;
        check_str "parity" (serial_text mask)
          (Faults.Fault_list.to_string
             (Defects.Lift.ranked redo.Defects.Pipeline.result)));
  ]

let ranked_tests =
  [
    Alcotest.test_case "ranked is a total order" `Quick (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 () in
        let ext = Extract.Extractor.extract mask in
        let result = Defects.Lift.run ext in
        let ranked = Defects.Lift.ranked result in
        check_int "same population" (List.length result.Defects.Lift.faults)
          (List.length ranked);
        (* Probability descending... *)
        let rec desc = function
          | a :: (b :: _ as rest) ->
            Faults.Fault.(a.prob >= b.prob) && desc rest
          | _ -> true
        in
        check_bool "prob desc" true (desc ranked);
        (* ...and reversing the input changes nothing: ties are broken
           by fault class and site id, never by input order. *)
        let rev =
          Defects.Lift.ranked
            { result with Defects.Lift.faults = List.rev result.Defects.Lift.faults }
        in
        check_bool "input-order free" true (ranked = rev));
  ]

let suites =
  [
    ("pipeline.tiling", tiling_tests);
    ("pipeline.pool", pool_tests);
    ("pipeline.parity", parity_tests);
    ("pipeline.cache", cache_tests);
    ("pipeline.ranked", ranked_tests);
  ]
