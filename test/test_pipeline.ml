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
    Alcotest.test_case "work counters: cold splits, warm does no site work" `Quick
      (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 () in
        let cache = temp_dir () in
        let traced () =
          let obs = Obs.memory () in
          let config =
            { Defects.Pipeline.default_config with
              tile_nm = Synth.Layout_synth.cell_pitch_nm; cache_dir = Some cache; obs }
          in
          let r = Defects.Pipeline.run ~config mask in
          let events = Obs.drain obs in
          let counter name =
            List.fold_left
              (fun acc -> function
                | Obs.Count { name = n; n = k; _ } when n = name -> acc + k
                | _ -> acc)
              0 events
          in
          (r, counter)
        in
        let cold, c = traced () in
        let ext = cold.Defects.Pipeline.extraction in
        let cuts_with_partners =
          Array.fold_left
            (fun n (cut : Extract.Extraction.cut) ->
              match cut.joins with [] | [ _ ] -> n | _ -> n + 1)
            0 ext.Extract.Extraction.cuts
        in
        (* One split per conductor and per multi-join cut, and one graph
           per net that has a conductor. *)
        check_int "cold splits"
          (Array.length ext.Extract.Extraction.conductors + cuts_with_partners)
          (c "pipeline.sites.splits");
        check_int "cold graphs" (Extract.Extraction.net_count ext)
          (c "pipeline.sites.net_adjacency");
        check_int "candidates" cold.result.Defects.Lift.sites_considered
          (c "pipeline.rank.candidates");
        check_int "faults" (List.length cold.result.Defects.Lift.faults)
          (c "pipeline.rank.faults");
        check_bool "merge shrinks" true
          (c "pipeline.rank.faults" < c "pipeline.rank.candidates");
        let _, w = traced () in
        check_int "warm splits" 0 (w "pipeline.sites.splits");
        check_int "warm graphs" 0 (w "pipeline.sites.net_adjacency");
        check_int "warm candidates" (c "pipeline.rank.candidates")
          (w "pipeline.rank.candidates"));
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
    Alcotest.test_case "a failed artefact write is counted, not an error"
      `Quick (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:1 ~cols:2 () in
        let failed obs =
          List.fold_left
            (fun acc -> function
              | Obs.Count { name = "pipeline.store_failed"; n; _ } -> acc + n
              | _ -> acc)
            0 (Obs.drain obs)
        in
        let run ~cache =
          let obs = Obs.memory () in
          let config =
            { Defects.Pipeline.tile_nm = Synth.Layout_synth.cell_pitch_nm;
              domains = 1; cache_dir = Some cache; obs;
              options = Defects.Lift.default_options }
          in
          let r = Defects.Pipeline.run ~config mask in
          ( Faults.Fault_list.to_string (Defects.Lift.ranked r.Defects.Pipeline.result),
            r.Defects.Pipeline.counters,
            failed obs )
        in
        let serial = serial_text mask in
        Obs.Failpoint.reset ();
        Fun.protect ~finally:Obs.Failpoint.reset @@ fun () ->
        let dir = temp_dir () in
        Obs.Failpoint.arm "pipeline.store" Obs.Failpoint.Fail;
        let text, _, n = run ~cache:dir in
        check_str "parity with one write failed" serial text;
        check_int "one failure counted" 1 n;
        (* The artefact that failed to land is the one warm miss. *)
        let text, c, _ = run ~cache:dir in
        check_str "warm parity" serial text;
        let computed (c : Defects.Pipeline.counters) =
          c.connectivity.computed + c.sites.computed + c.critical_area.computed
        in
        check_int "one artefact recomputed" 1 (computed c);
        (* A cache directory that cannot exist: every write fails. *)
        let file = Filename.concat dir "a-file" in
        Out_channel.with_open_bin file (fun _ -> ());
        let text, c, n = run ~cache:file in
        check_str "parity with no usable store" serial text;
        check_int "every write counted" (3 * c.Defects.Pipeline.tiles) n);
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

(* --- Reference oracles ---------------------------------------------- *)

(* The pairwise skeleton the extractor shipped before it indexed shapes
   spatially, kept as an independent oracle: every poly shape against
   every diffusion shape, a maximal-region filter by full scan, and every
   diffusion shape cut by every channel. *)
let reference_channels mask =
  let poly = Layout.Mask.on mask Layout.Layer.Poly in
  let overlaps kind diff_layer =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun p ->
            match Geom.Rect.inter p d with
            | Some i when not (Geom.Rect.is_degenerate i) -> Some (kind, i)
            | Some _ | None -> None)
          poly)
      (Layout.Mask.on mask diff_layer)
  in
  let chans = overlaps `N Layout.Layer.Ndiff @ overlaps `P Layout.Layer.Pdiff in
  let maximal (kind, r) =
    not
      (List.exists
         (fun (k2, r2) ->
           k2 = kind && not (Geom.Rect.equal r r2) && Geom.Rect.contains r2 r)
         chans)
  in
  List.filter maximal chans |> List.sort_uniq compare

let reference_conductors mask channel_rects =
  let pieces layer =
    Geom.Rect_set.subtract_all (Layout.Mask.on mask layer) channel_rects
    |> List.map (fun rect -> { Extract.Extraction.layer; rect })
  in
  let whole layer =
    List.map (fun rect -> { Extract.Extraction.layer; rect }) (Layout.Mask.on mask layer)
  in
  Array.of_list
    (pieces Layout.Layer.Ndiff @ pieces Layout.Layer.Pdiff @ whole Layout.Layer.Poly
    @ whole Layout.Layer.Metal1 @ whole Layout.Layer.Metal2)

let skeleton_matches mask =
  let sk = Extract.Extractor.skeleton mask in
  let channels = reference_channels mask in
  sk.Extract.Extractor.sk_channels = channels
  && sk.Extract.Extractor.sk_conductors
     = reference_conductors mask (List.map snd channels)

(* Cut joins by the linear scan [Connectivity.unify] did before it
   indexed conductors: every target-layer conductor touching the cut, in
   ascending index order. *)
let joins_match (ext : Extract.Extraction.t) =
  Array.for_all
    (fun (cut : Extract.Extraction.cut) ->
      let targets =
        if Layout.Layer.equal cut.cut_layer Layout.Layer.Via then
          [ Layout.Layer.Metal1; Layout.Layer.Metal2 ]
        else [ Layout.Layer.Metal1; Layout.Layer.Poly; Layout.Layer.Ndiff; Layout.Layer.Pdiff ]
      in
      cut.joins
      = List.filter
          (fun i ->
            let (c : Extract.Extraction.conductor) = ext.conductors.(i) in
            List.exists (Layout.Layer.equal c.layer) targets
            && Geom.Rect.touches c.rect cut.cut_rect)
          (List.init (Array.length ext.conductors) Fun.id))
    ext.cuts

(* The per-split recomputation [Sites.split] did before it kept one
   graph per net: touching pairs among the net's surviving members and
   the surviving cuts' joins, rebuilt from scratch on every query. *)
let reference_split (ext : Extract.Extraction.t) ~skip_conductor ~skip_cut ~net =
  let members =
    Array.of_list
      (List.filter (fun k -> ext.net_of.(k) = net) (List.init (Array.length ext.net_of) Fun.id))
  in
  let m = Array.length members in
  let pos = Hashtbl.create (2 * m) in
  Array.iteri (fun p g -> Hashtbl.add pos g p) members;
  let uf = Geom.Union_find.create m in
  List.iter
    (fun layer ->
      let positions =
        Array.of_seq
          (Seq.filter
             (fun p ->
               let g = members.(p) in
               Layout.Layer.equal ext.conductors.(g).Extract.Extraction.layer layer
               && not (skip_conductor g))
             (Seq.init m Fun.id))
      in
      let rects =
        Array.map (fun p -> ext.conductors.(members.(p)).Extract.Extraction.rect) positions
      in
      List.iter
        (fun (a, b) -> ignore (Geom.Union_find.union uf positions.(a) positions.(b)))
        (Geom.Rect_set.touching_pairs rects))
    Extract.Connectivity.conducting_layers;
  Array.iteri
    (fun ci (cut : Extract.Extraction.cut) ->
      match cut.joins with
      | anchor :: _ when ext.net_of.(anchor) = net && not (skip_cut ci) -> (
        match List.filter (fun g -> not (skip_conductor g)) cut.joins with
        | first :: rest ->
          let pf = Hashtbl.find pos first in
          List.iter (fun g -> ignore (Geom.Union_find.union uf pf (Hashtbl.find pos g))) rest
        | [] -> ())
      | _ -> ())
    ext.cuts;
  let groups = Hashtbl.create 8 in
  let detached = ref [] and have_detached = ref false in
  List.iter
    (fun (t : Extract.Extraction.terminal) ->
      if ext.net_of.(t.conductor) = net then begin
        let term = { Faults.Fault.device = t.device; port = t.port } in
        if skip_conductor t.conductor then begin
          have_detached := true;
          detached := term :: !detached
        end
        else begin
          let root = Geom.Union_find.find uf (Hashtbl.find pos t.conductor) in
          match Hashtbl.find_opt groups root with
          | Some r ->
            let key, terms = !r in
            r := (min key t.conductor, term :: terms)
          | None -> Hashtbl.add groups root (ref (t.conductor, [ term ]))
        end
      end)
    ext.terminals;
  let group_list =
    Hashtbl.fold (fun _ r acc -> let key, terms = !r in (key, List.sort compare terms) :: acc) groups []
    |> (fun l -> if !have_detached then (-1, List.sort compare !detached) :: l else l)
    |> List.sort compare
  in
  match group_list with
  | [] | [ _ ] -> None
  | _ ->
    let keep =
      List.fold_left
        (fun best (key, members) ->
          match best with
          | None -> Some (key, members)
          | Some (bkey, bmembers) ->
            if key = -1 then best
            else if bkey = -1 then Some (key, members)
            else if List.length members > List.length bmembers then Some (key, members)
            else best)
        None group_list
    in
    let keep_key = match keep with Some (k, _) -> k | None -> assert false in
    let moved =
      List.concat_map (fun (key, members) -> if key = keep_key then [] else members) group_list
    in
    if moved = [] then None else Some moved

(* Every single-shape open of [ext] plus [extra] multi-shape defects,
   through one shared splitter (so cached net graphs are reused), must
   match the reference. *)
let splits_match ?(extra = []) (ext : Extract.Extraction.t) =
  let sp = Defects.Sites.splitter ext in
  let agree ~skip_conductor ~skip_cut ~net =
    Defects.Sites.split sp ~skip_conductor ~skip_cut ~net
    = reference_split ext ~skip_conductor ~skip_cut ~net
  in
  let never _ = false in
  let conductor_opens =
    List.for_all
      (fun k -> agree ~skip_conductor:(Int.equal k) ~skip_cut:never ~net:ext.net_of.(k))
      (List.init (Array.length ext.conductors) Fun.id)
  in
  let cut_opens =
    List.for_all
      (fun ci ->
        match ext.cuts.(ci).Extract.Extraction.joins with
        | [] -> true
        | anchor :: _ ->
          agree ~skip_conductor:never ~skip_cut:(Int.equal ci) ~net:ext.net_of.(anchor))
      (List.init (Array.length ext.cuts) Fun.id)
  in
  conductor_opens && cut_opens
  && List.for_all
       (fun (ks, cis) ->
         let skip_conductor k = List.mem k ks and skip_cut ci = List.mem ci cis in
         List.for_all
           (fun net -> agree ~skip_conductor ~skip_cut ~net)
           (List.sort_uniq compare
              (List.map (fun k -> ext.net_of.(k)) ks
              @ List.filter_map
                  (fun ci ->
                    match ext.cuts.(ci).Extract.Extraction.joins with
                    | anchor :: _ -> Some ext.net_of.(anchor)
                    | [] -> None)
                  cis)))
       extra

(* Random masks.  Raw soups of diffusion and poly rectangles on a coarse
   grid (coincident, nested and abutting shapes are common) exercise the
   skeleton; synthesized arrays and meshes overlaid with random metal
   rectangles and vias - which merge nets, add cut joins and close
   loops - extract cleanly and exercise the splitter. *)
let grid_rect =
  QCheck.Gen.(
    map
      (fun (x, y, w, h) -> Geom.Rect.make (x * 500) (y * 500) ((x + w) * 500) ((y + h) * 500))
      (quad (int_range 0 40) (int_range 0 40) (int_range 1 12) (int_range 1 12)))

let soup_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (pair (oneofl [ Layout.Layer.Poly; Layout.Layer.Ndiff; Layout.Layer.Pdiff ]) grid_rect)
    >>= fun shapes ->
    (* Repeat some shapes verbatim: coincident channels must dedupe. *)
    map
      (fun dup -> if dup then shapes @ List.filteri (fun i _ -> i mod 3 = 0) shapes else shapes)
      bool)

let soup_mask shapes =
  List.fold_left
    (fun m (layer, r) -> Layout.Mask.add_shape m layer r)
    (Layout.Mask.empty Layout.Tech.default)
    shapes

let overlay_gen =
  QCheck.Gen.(
    pair
      (oneof
         [
           map3
             (fun rows cols nudge ->
               let nudge = if nudge then Some (rows - 1, cols - 1) else None in
               Synth.Layout_synth.vco_array ~rows ~cols ?nudge ())
             (int_range 1 2) (int_range 1 3) bool;
           map2 (fun rows cols -> Synth.Layout_synth.mesh ~rows ~cols ())
             (int_range 2 5) (int_range 2 5);
         ])
      (list_size (int_range 0 8)
         (triple
            (oneofl [ Layout.Layer.Metal1; Layout.Layer.Metal2; Layout.Layer.Via ])
            (pair (float_range 0.0 1.0) (float_range 0.0 1.0))
            (pair (int_range 1 40) (int_range 1 40)))))

let overlay_mask (base, extras) =
  let bb = Layout.Mask.bbox base in
  List.fold_left
    (fun m (layer, (fx, fy), (w, h)) ->
      let x = bb.Geom.Rect.x0 + int_of_float (fx *. float_of_int (Geom.Rect.width bb))
      and y = bb.Geom.Rect.y0 + int_of_float (fy *. float_of_int (Geom.Rect.height bb)) in
      let w, h =
        if Layout.Layer.equal layer Layout.Layer.Via then
          let side = Layout.Tech.default.Layout.Tech.cut_side in
          (side, side)
        else (w * 500, h * 500)
      in
      Layout.Mask.add_shape m layer (Geom.Rect.make x y (x + w) (y + h)))
    base extras

let oracle_qcheck =
  let open QCheck in
  let print_soup shapes =
    String.concat ";"
      (List.map
         (fun (l, r) -> Layout.Layer.to_string l ^ ":" ^ Geom.Rect.to_string r)
         shapes)
  in
  [
    Test.make ~name:"indexed skeleton equals the pairwise reference" ~count:300
      (make ~print:print_soup soup_gen)
      (fun shapes -> skeleton_matches (soup_mask shapes));
    Test.make ~name:"cut joins and net-graph splits equal the references" ~count:40
      (make overlay_gen)
      (fun case ->
        let mask = overlay_mask case in
        skeleton_matches mask
        &&
        let ext = Extract.Extractor.extract mask in
        joins_match ext
        &&
        let n = Array.length ext.Extract.Extraction.conductors in
        let c = Array.length ext.Extract.Extraction.cuts in
        (* A few multi-shape defects, as the Monte-Carlo injector makes. *)
        let extra =
          List.init 4 (fun i ->
              ( List.filter (fun k -> (k + i) mod 7 = 0) (List.init n Fun.id),
                List.filter (fun ci -> (ci + i) mod 5 = 0) (List.init c Fun.id) ))
        in
        splits_match ~extra ext);
  ]
  |> List.map Prop.to_alcotest

let oracle_tests =
  [
    Alcotest.test_case "paper VCO: skeleton and splits equal the references" `Quick
      (fun () ->
        let mask = Cat.Demo.mask () in
        let ext = Extract.Extractor.extract ~options:Cat.Demo.extractor_options mask in
        check_bool "skeleton" true (skeleton_matches mask);
        check_bool "cut joins" true (joins_match ext);
        check_bool "splits" true (splits_match ext));
  ]

(* --- Pinned answers ------------------------------------------------------ *)

(* [mask] plus one small isolated metal2 square inside its hull: a local
   edit, so re-running [mask] over a cache filled by the variant is an
   incremental run (the VCO has no built-in nudge). *)
let local_variant mask =
  let bb = Layout.Mask.bbox mask in
  let m2 = Layout.Mask.on mask Layout.Layer.Metal2 in
  let side = 1000 and clear = 20_000 in
  let spot =
    List.find_map
      (fun (fx, fy) ->
        let x = bb.Geom.Rect.x0 + (fx * Geom.Rect.width bb / 8)
        and y = bb.Geom.Rect.y0 + (fy * Geom.Rect.height bb / 8) in
        let r = Geom.Rect.make x y (x + side) (y + side) in
        if List.exists (fun s -> Geom.Rect.touches s (Geom.Rect.expand r clear)) m2 then None
        else Some r)
      (List.concat_map (fun fx -> List.init 7 (fun fy -> (fx, fy + 1))) (List.init 7 succ))
  in
  match spot with
  | Some r -> Layout.Mask.add_shape mask Layout.Layer.Metal2 r
  | None -> Alcotest.fail "no free spot for the local edit"

(* MD5 of the ranked fault-list text, fixed before the fault merge,
   skeleton and splitter were rewritten: a change that moves the serial
   path and the pipeline together still fails here.  Each layout comes
   with a locally edited variant for the incremental run. *)
let pinned =
  [
    ("paper VCO", Cat.Demo.mask, local_variant, "21160807251c0d88b008e8c3cc7f5f41");
    ( "6x6 delay-cell array",
      (fun () -> Synth.Layout_synth.vco_array ~rows:6 ~cols:6 ()),
      (fun _ -> Synth.Layout_synth.vco_array ~rows:6 ~cols:6 ~nudge:(2, 3) ()),
      "24d3d78e904b8c6f4add40978a819c70" );
  ]

let pinned_tests =
  List.map
    (fun (name, mask, variant, digest) ->
      Alcotest.test_case (name ^ ": pinned ranked list") `Quick (fun () ->
          let mask = mask () in
          let md5 text = Digest.to_hex (Digest.string text) in
          let tile = 40_000 in
          check_str "serial" digest (md5 (serial_text mask));
          (* Two domains share one splitter, so net graphs race. *)
          check_str "2 domains, unaligned tiles" digest
            (md5 (pipeline_text ~tile:27_000 ~domains:2 mask));
          let cache = temp_dir () in
          let cold = pipeline_run ~tile ~cache mask in
          check_str "cold" digest
            (md5 (Faults.Fault_list.to_string (Defects.Lift.ranked cold.result)));
          let warm = pipeline_run ~tile ~cache mask in
          check_bool "warm all cached" true (all_cached warm.counters);
          check_str "warm" digest
            (md5 (Faults.Fault_list.to_string (Defects.Lift.ranked warm.result)));
          let incr_cache = temp_dir () in
          ignore (pipeline_run ~tile ~cache:incr_cache (variant mask));
          let incr = pipeline_run ~tile ~cache:incr_cache mask in
          let c = incr.counters in
          check_bool "incremental reuses tiles" true
            (c.sites.cached > 0 && c.sites.computed > 0);
          check_str "incr" digest
            (md5 (Faults.Fault_list.to_string (Defects.Lift.ranked incr.result)))))
    pinned

let suites =
  [
    ("pipeline.tiling", tiling_tests);
    ("pipeline.pool", pool_tests);
    ("pipeline.parity", parity_tests);
    ("pipeline.cache", cache_tests);
    ("pipeline.ranked", ranked_tests);
    ("pipeline.oracles", oracle_tests @ oracle_qcheck);
    ("pipeline.pinned", pinned_tests);
  ]
