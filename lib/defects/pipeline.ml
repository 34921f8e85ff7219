(* Staged, parallel, incremental LIFT.

   The monolithic [Extractor.extract |> Lift.run] flow is decomposed into
   stages with explicit, content-addressed artefacts:

     Layout -> Tiles -> Connectivity -> Sites -> Critical_area -> Ranked_faults

   A uniform tile grid covers the layout; every geometric fact (a touching
   pair, a facing pair, a cut, a conductor) is owned by exactly one tile -
   the tile containing its anchor point - and computed inside that tile's
   margin window, so per-tile results union to exactly the global answer.
   Each per-tile artefact is keyed by a digest of everything it reads:

     window digest  = tech parameters + tile cell + margin
                      + the ordered (layer, rect) sequence of the window's
                        member conductors + the tile's owned cut shapes
     sites digest   = window digest + the digests of every net touching an
                      owned conductor or cut (a net digest covers member
                      geometry, cuts and anchored terminals, so a split
                      result can never go stale through a distant edit)
     CA digest      = window digest + the defect-size pdf parameters

   On a re-run after a local geometry edit, only the tiles whose windows
   saw the edit (and the tiles owning members of nets it rewired) miss the
   cache; everything else loads its artefact back.  Artefacts store
   window-local member positions, never global conductor indices or net
   ids - those shift under edits elsewhere - and are remapped against the
   current member lists on load.

   Determinism: stage fan-out runs over {!Pool} with results in indexed
   slots, per-key bridge contributions are sorted by global pair index and
   folded left (the serial summation order of {!Sites.bridges}), and net
   ids are canonical (smallest conductor index) whatever the union order,
   so the ranked fault list is byte-identical to the serial path across
   runs, tile sizes and domain counts. *)

type stage_counter = { computed : int; cached : int }

type counters = {
  tiles : int;
  connectivity : stage_counter;
  sites : stage_counter;
  critical_area : stage_counter;
}

type config = {
  tile_nm : int;
  domains : int;
  cache_dir : string option;
  obs : Obs.sink;
  options : Lift.options;
}

let default_config =
  {
    tile_nm = 200_000;
    domains = 1;
    cache_dir = None;
    obs = Obs.null;
    options = Lift.default_options;
  }

type t = {
  result : Lift.result;
  extraction : Extract.Extraction.t;
  counters : counters;
}

let counters_to_json c =
  let stage (s : stage_counter) =
    Obs.Json.Obj [ ("computed", Obs.Json.Int s.computed); ("cached", Obs.Json.Int s.cached) ]
  in
  Obs.Json.Obj
    [
      ("tiles", Obs.Json.Int c.tiles);
      ( "stages",
        Obs.Json.Obj
          [
            ("connectivity", stage c.connectivity);
            ("sites", stage c.sites);
            ("critical_area", stage c.critical_area);
          ] );
    ]

(* --- Artefact store ----------------------------------------------------- *)

(* A flat directory of content-addressed files, one per (stage, digest).
   Entries are Marshal payloads sealed by [Durable.seal] (a magic string
   and an MD5 checksum); anything that fails to unseal or unmarshal is a
   cache miss, never an error (the artefact is recomputed and the entry
   rewritten).  Every write is a [Durable.replace] through its own fresh
   temporary file, so concurrent writers of the same key - identical
   tiles of a regular array, or two threads of one domain extracting the
   same layout - race benignly: last rename wins, both contents equal.
   Writes are not fsynced: a torn artefact fails its checksum and is
   recomputed, and a failed write (disk full, a [pipeline.store=fail]
   failpoint) is counted as [pipeline.store_failed] and dropped. *)
module Store = struct
  type t = { dir : string; obs : Obs.sink }

  let magic = "LIFTPIPE1\n"

  (* An unusable directory needs no special case: every save then
     fails and is counted, every load misses. *)
  let create ~obs dir =
    ignore (Durable.ensure_dir dir);
    { dir; obs }

  let path t key = Filename.concat t.dir key

  let load : t -> string -> 'a option =
   fun t key ->
    match In_channel.with_open_bin (path t key) In_channel.input_all with
    | exception Sys_error _ -> None
    | blob ->
      Option.bind (Durable.unseal ~magic blob) (fun payload ->
          try Some (Marshal.from_string payload 0) with _ -> None)

  let save t key v =
    try
      Obs.Failpoint.hit "pipeline.store";
      let blob = Durable.seal ~magic (Marshal.to_string v []) in
      Durable.replace ~sync:false (path t key) (fun oc -> output_string oc blob)
    with (Sys_error _ | Unix.Unix_error _ | Obs.Failpoint.Injected _) as e ->
      Obs.count t.obs "pipeline.store_failed" 1
        ~attrs:[ ("key", Obs.Str key); ("error", Obs.Str (Printexc.to_string e)) ]
end

(* --- Digests ------------------------------------------------------------ *)

let hex s = Digest.to_hex (Digest.string s)

let add_rect b (r : Geom.Rect.t) =
  Buffer.add_string b
    (Printf.sprintf "%d,%d,%d,%d;" r.Geom.Rect.x0 r.Geom.Rect.y0 r.Geom.Rect.x1
       r.Geom.Rect.y1)

let add_shape b layer r =
  Buffer.add_string b (Layout.Layer.to_string layer);
  Buffer.add_char b ':';
  add_rect b r

let tech_string (tech : Layout.Tech.t) =
  Printf.sprintf "tech:%d:%d:%d:%d:%d" tech.Layout.Tech.lambda
    tech.Layout.Tech.cut_side tech.Layout.Tech.cut_enclosure
    tech.Layout.Tech.defect_x_min tech.Layout.Tech.defect_x_max

let pdf_string = function
  | Geom.Critical_area.Cubic { x_min } -> Printf.sprintf "cubic:%h" x_min
  | Geom.Critical_area.Uniform { x_min; x_max } ->
    Printf.sprintf "uniform:%h:%h" x_min x_max

(* --- Per-tile artefacts ------------------------------------------------- *)

(* Connectivity: same-layer touching pairs owned by the tile (window-local
   member positions) and, for each cut the tile owns, the member positions
   it joins. *)
type conn_art = { cn_pairs : (int * int) list; cn_joins : int list list }

(* Sites: facing ("close") pairs per conducting layer with their facing
   geometry; the split verdict for each owned conductor and owned cut
   (the terminals the open would tear off its net, [None] when the net
   survives). *)
type sites_art = {
  st_bridge : (int * int * int * int) list array;
      (* per conducting layer: local a, local b, spacing, length *)
  st_moved : Faults.Fault.terminal list option array;  (* per owned conductor *)
  st_cut_moved : Faults.Fault.terminal list option array;  (* per owned cut *)
}

(* Critical areas, aligned with [st_bridge] (which depends only on the
   window digest, the common key prefix) and with the owned conductors. *)
type ca_art = { ar_bridge : float array array; ar_open : float array }

(* --- The run ------------------------------------------------------------ *)

let zero_counters =
  {
    tiles = 0;
    connectivity = { computed = 0; cached = 0 };
    sites = { computed = 0; cached = 0 };
    critical_area = { computed = 0; cached = 0 };
  }

let run ?(config = default_config) mask =
  let obs = config.obs in
  let options = config.options in
  let sk = Obs.span obs "pipeline.skeleton" (fun _ -> Extract.Extractor.skeleton mask) in
  let conductors = sk.Extract.Extractor.sk_conductors in
  let cut_shapes = sk.Extract.Extractor.sk_cut_shapes in
  let n = Array.length conductors in
  if n = 0 then begin
    (* Nothing to tile: an empty (or conductor-free) layout short-circuits
       through the serial path. *)
    let ext = Extract.Extractor.extract mask in
    { result = Lift.run ~options ext; extraction = ext; counters = zero_counters }
  end
  else begin
    let tech = mask.Layout.Mask.tech in
    let x_max = tech.Layout.Tech.defect_x_max in
    let margin = max x_max (2 * tech.Layout.Tech.cut_side) in
    let store = Option.map (Store.create ~obs) config.cache_dir in
    (* Tiles stage: the grid, window membership, ownership, digests. *)
    let tiling, members, owned_cond, owned_cuts, wdigest =
      Obs.span obs "pipeline.tiles" (fun _ ->
          let hull = ref conductors.(0).Extract.Extraction.rect in
          Array.iter
            (fun (c : Extract.Extraction.conductor) ->
              hull := Geom.Rect.hull !hull c.rect)
            conductors;
          Array.iter (fun (_, r) -> hull := Geom.Rect.hull !hull r) cut_shapes;
          let tiling = Geom.Tiling.create ~tile_nm:config.tile_nm !hull in
          let nt = Geom.Tiling.count tiling in
          let members = Array.make nt [] in
          Array.iteri
            (fun k (c : Extract.Extraction.conductor) ->
              List.iter
                (fun ti -> members.(ti) <- k :: members.(ti))
                (Geom.Tiling.covering tiling ~margin c.rect))
            conductors;
          let members = Array.map (fun l -> Array.of_list (List.rev l)) members in
          let owned_cond = Array.make nt [] in
          Array.iteri
            (fun k (c : Extract.Extraction.conductor) ->
              let ti =
                Geom.Tiling.owner tiling ~x:c.rect.Geom.Rect.x0 ~y:c.rect.Geom.Rect.y0
              in
              owned_cond.(ti) <- k :: owned_cond.(ti))
            conductors;
          let owned_cond =
            Array.map (fun l -> Array.of_list (List.rev l)) owned_cond
          in
          let owned_cuts = Array.make nt [] in
          Array.iteri
            (fun ci (_, (r : Geom.Rect.t)) ->
              let ti = Geom.Tiling.owner tiling ~x:r.Geom.Rect.x0 ~y:r.Geom.Rect.y0 in
              owned_cuts.(ti) <- ci :: owned_cuts.(ti))
            cut_shapes;
          let owned_cuts =
            Array.map (fun l -> Array.of_list (List.rev l)) owned_cuts
          in
          let tech_str = tech_string tech in
          let wdigest =
            Array.init nt (fun ti ->
                let b = Buffer.create 4096 in
                Buffer.add_string b tech_str;
                Buffer.add_string b (Printf.sprintf "|margin:%d|cell:" margin);
                add_rect b (Geom.Tiling.rect tiling ti);
                Buffer.add_string b "|members:";
                Array.iter
                  (fun k ->
                    let c = conductors.(k) in
                    add_shape b c.Extract.Extraction.layer c.Extract.Extraction.rect)
                  members.(ti);
                Buffer.add_string b "|cuts:";
                Array.iter
                  (fun ci ->
                    let layer, r = cut_shapes.(ci) in
                    add_shape b layer r)
                  owned_cuts.(ti);
                hex (Buffer.contents b))
          in
          (tiling, members, owned_cond, owned_cuts, wdigest))
    in
    let nt = Geom.Tiling.count tiling in
    if Obs.enabled obs then Obs.count obs "pipeline.tiles" nt;
    (* Stage driver: look the artefact up by digest, compute on miss. *)
    let staged ~stage ~computed ~cached ~key compute =
      match store with
      | None ->
        Atomic.incr computed;
        compute ()
      | Some st -> (
        let file = stage ^ "-" ^ key in
        match Store.load st file with
        | Some v ->
          Atomic.incr cached;
          v
        | None ->
          let v = compute () in
          Store.save st file v;
          Atomic.incr computed;
          v)
    in
    let conn_computed = Atomic.make 0 and conn_cached = Atomic.make 0 in
    let sites_computed = Atomic.make 0 and sites_cached = Atomic.make 0 in
    let ca_computed = Atomic.make 0 and ca_cached = Atomic.make 0 in
    (* Connectivity stage (parallel, cached per tile). *)
    let conn_arts =
      Obs.span obs "pipeline.connectivity" (fun _ ->
          Pool.map ~domains:config.domains
            (fun ti ->
              staged ~stage:"conn" ~computed:conn_computed ~cached:conn_cached
                ~key:wdigest.(ti)
                (fun () ->
                  let owns ~x ~y = Geom.Tiling.owner tiling ~x ~y = ti in
                  {
                    cn_pairs =
                      Extract.Connectivity.tile_pairs ~conductors
                        ~members:members.(ti) ~owns;
                    cn_joins =
                      Array.to_list
                        (Extract.Connectivity.tile_cut_joins ~conductors
                           ~members:members.(ti) ~cut_shapes
                           ~owned_cuts:owned_cuts.(ti));
                  }))
            nt)
    in
    (* Merge: one union-find over all conductors, join lists per cut, then
       the serial tail of extraction.  Net ids are canonical (smallest
       conductor index first), so the union order - which differs from the
       serial path's - cannot show in the result. *)
    let ext =
      Obs.span obs "pipeline.assemble" (fun _ ->
          let uf = Geom.Union_find.create n in
          let joins = Array.make (Array.length cut_shapes) [] in
          Array.iteri
            (fun ti (art : conn_art) ->
              List.iter
                (fun (pa, pb) ->
                  ignore
                    (Geom.Union_find.union uf members.(ti).(pa) members.(ti).(pb)))
                art.cn_pairs;
              List.iteri
                (fun j positions ->
                  let ci = owned_cuts.(ti).(j) in
                  let g = List.map (fun p -> members.(ti).(p)) positions in
                  joins.(ci) <- g;
                  match g with
                  | first :: rest ->
                    List.iter
                      (fun i -> ignore (Geom.Union_find.union uf first i))
                      rest
                  | [] -> ())
                art.cn_joins)
            conn_arts;
          Extract.Extractor.assemble sk ~uf ~joins)
    in
    (* Net digests: the full electrical neighbourhood a split result can
       depend on - member geometry in order, the net's cuts with their
       joins as net-local member positions, and the anchored terminals
       (device names included, so a renamed or renumbered device
       invalidates the split that mentions it). *)
    let nets = Extract.Extraction.net_count ext in
    let ndigest =
      Obs.span obs "pipeline.net_digests" (fun _ ->
          let net_members = Array.make nets [] in
          Array.iteri
            (fun k net -> net_members.(net) <- k :: net_members.(net))
            ext.net_of;
          let net_members = Array.map List.rev net_members in
          let net_pos = Array.make n 0 in
          Array.iter
            (fun ms -> List.iteri (fun p k -> net_pos.(k) <- p) ms)
            net_members;
          let terms_of = Array.make n [] in
          List.iter
            (fun (t : Extract.Extraction.terminal) ->
              terms_of.(t.conductor) <- t :: terms_of.(t.conductor))
            (List.rev ext.terminals);
          let net_cuts = Array.make nets [] in
          Array.iteri
            (fun ci (c : Extract.Extraction.cut) ->
              match c.joins with
              | [] -> ()
              | anchor :: _ ->
                let net = ext.net_of.(anchor) in
                net_cuts.(net) <- ci :: net_cuts.(net))
            ext.cuts;
          let net_cuts = Array.map List.rev net_cuts in
          Array.init nets (fun net ->
              let b = Buffer.create 1024 in
              List.iter
                (fun k ->
                  let c = ext.conductors.(k) in
                  add_shape b c.Extract.Extraction.layer c.Extract.Extraction.rect;
                  List.iter
                    (fun (t : Extract.Extraction.terminal) ->
                      Buffer.add_string b
                        (Printf.sprintf "t:%s:%d;" t.device t.port))
                    terms_of.(k))
                net_members.(net);
              List.iter
                (fun ci ->
                  let c = ext.cuts.(ci) in
                  add_shape b c.Extract.Extraction.cut_layer
                    c.Extract.Extraction.cut_rect;
                  List.iter
                    (fun k ->
                      Buffer.add_string b (Printf.sprintf "j:%d;" net_pos.(k)))
                    c.joins)
                net_cuts.(net);
              hex (Buffer.contents b)))
    in
    (* Sites + Critical_area stages (parallel, cached per tile; the CA
       task reads the sites artefact's pair list, so the two run as one
       per-tile chain with separate cache entries). *)
    let pdf = Sites.pdf_of ?pdf:options.Lift.pdf ext in
    let x_max_f = Sites.x_max_of ext in
    let pdf_str = pdf_string pdf in
    let conducting = Extract.Connectivity.conducting_layers in
    let sp = Sites.splitter ext in
    let splits = Atomic.make 0 in
    let split ~skip_conductor ~skip_cut ~net =
      Atomic.incr splits;
      Sites.split sp ~skip_conductor ~skip_cut ~net
    in
    let tile_sites =
      Obs.span obs "pipeline.sites" (fun _ ->
          Pool.map ~domains:config.domains
            (fun ti ->
              let skey =
                let nets_touched =
                  List.sort_uniq String.compare
                    (List.concat
                       [
                         Array.to_list
                           (Array.map
                              (fun k -> ndigest.(ext.net_of.(k)))
                              owned_cond.(ti));
                         List.filter_map
                           (fun ci ->
                             match ext.cuts.(ci).Extract.Extraction.joins with
                             | [] -> None
                             | anchor :: _ -> Some ndigest.(ext.net_of.(anchor)))
                           (Array.to_list owned_cuts.(ti));
                       ])
                in
                hex (String.concat "|" (wdigest.(ti) :: nets_touched))
              in
              let sites =
                staged ~stage:"sites" ~computed:sites_computed
                  ~cached:sites_cached ~key:skey (fun () ->
                    let owns ~x ~y = Geom.Tiling.owner tiling ~x ~y = ti in
                    let st_bridge =
                      Array.of_list
                        (List.map
                           (fun layer ->
                             let positions =
                               Array.of_seq
                                 (Seq.filter
                                    (fun p ->
                                      Layout.Layer.equal
                                        ext.conductors.(members.(ti).(p))
                                          .Extract.Extraction.layer layer)
                                    (Seq.init (Array.length members.(ti)) Fun.id))
                             in
                             let rects =
                               Array.map
                                 (fun p ->
                                   ext.conductors.(members.(ti).(p))
                                     .Extract.Extraction.rect)
                                 positions
                             in
                             List.filter_map
                               (fun (a, b, spacing, length) ->
                                 let x, y =
                                   Extract.Connectivity.pair_anchor rects.(a)
                                     rects.(b)
                                 in
                                 if owns ~x ~y then
                                   Some (positions.(a), positions.(b), spacing, length)
                                 else None)
                               (Geom.Rect_set.close_pairs ~within:x_max rects))
                           conducting)
                    in
                    let st_moved =
                      Array.map
                        (fun k ->
                          split ~skip_conductor:(Int.equal k)
                            ~skip_cut:(fun _ -> false)
                            ~net:ext.net_of.(k))
                        owned_cond.(ti)
                    in
                    let st_cut_moved =
                      Array.map
                        (fun ci ->
                          match ext.cuts.(ci).Extract.Extraction.joins with
                          | [] | [ _ ] -> None
                          | anchor :: _ ->
                            split
                              ~skip_conductor:(fun _ -> false)
                              ~skip_cut:(Int.equal ci)
                              ~net:ext.net_of.(anchor))
                        owned_cuts.(ti)
                    in
                    { st_bridge; st_moved; st_cut_moved })
              in
              let ca =
                staged ~stage:"ca" ~computed:ca_computed ~cached:ca_cached
                  ~key:(hex (wdigest.(ti) ^ "|" ^ pdf_str))
                  (fun () ->
                    {
                      ar_bridge =
                        Array.map
                          (fun pairs ->
                            Array.of_list
                              (List.map
                                 (fun (_, _, spacing, length) ->
                                   Sites.short_ca ~x_max:x_max_f pdf ~spacing
                                     ~length)
                                 pairs))
                          sites.st_bridge;
                      ar_open =
                        Array.map
                          (fun k ->
                            let r =
                              ext.conductors.(k).Extract.Extraction.rect
                            in
                            let w = min (Geom.Rect.width r) (Geom.Rect.height r)
                            and l =
                              max (Geom.Rect.width r) (Geom.Rect.height r)
                            in
                            Sites.open_ca_of ~x_max:x_max_f pdf ~width:w
                              ~length:l)
                          owned_cond.(ti);
                    })
              in
              (sites, ca))
            nt)
    in
    (* Ranked_faults: merge the tiles back into the serial enumeration
       orders, price, merge, threshold, rank. *)
    let result =
      Obs.span obs "pipeline.rank" (fun _ ->
          let bridges =
            let acc :
                ( Layout.Layer.t * int * int,
                  (int * int * float) list ref )
                Hashtbl.t =
              Hashtbl.create 64
            in
            Array.iteri
              (fun ti ((sites : sites_art), (ca : ca_art)) ->
                List.iteri
                  (fun li layer ->
                    List.iteri
                      (fun pi (pa, pb, _, _) ->
                        let ia = members.(ti).(pa) and ib = members.(ti).(pb) in
                        let na = ext.net_of.(ia) and nb = ext.net_of.(ib) in
                        if na <> nb then begin
                          let key = (layer, min na nb, max na nb) in
                          let contrib = (ia, ib, ca.ar_bridge.(li).(pi)) in
                          match Hashtbl.find_opt acc key with
                          | Some r -> r := contrib :: !r
                          | None -> Hashtbl.add acc key (ref [ contrib ])
                        end)
                      sites.st_bridge.(li))
                  conducting)
              tile_sites;
            Hashtbl.fold
              (fun (bridge_layer, net_a, net_b) contribs l ->
                (* Reproduce the serial sum bit for bit: contributions in
                   ascending (ia, ib) order - the order [close_pairs] over
                   the whole layer yields - folded left from the first. *)
                let sorted =
                  List.sort
                    (fun (a1, b1, _) (a2, b2, _) -> compare (a1, b1) (a2, b2))
                    !contribs
                in
                let bridge_ca =
                  match sorted with
                  | [] -> assert false
                  | (_, _, c0) :: rest ->
                    List.fold_left (fun s (_, _, c) -> s +. c) c0 rest
                in
                { Sites.bridge_layer; net_a; net_b; bridge_ca } :: l)
              acc []
            |> List.sort compare
          in
          let moved_glob = Array.make n None in
          let open_ca_glob = Array.make n 0. in
          let cut_moved_glob = Array.make (Array.length ext.cuts) None in
          Array.iteri
            (fun ti ((sites : sites_art), (ca : ca_art)) ->
              Array.iteri
                (fun j k ->
                  moved_glob.(k) <- sites.st_moved.(j);
                  open_ca_glob.(k) <- ca.ar_open.(j))
                owned_cond.(ti);
              Array.iteri
                (fun j ci -> cut_moved_glob.(ci) <- sites.st_cut_moved.(j))
                owned_cuts.(ti))
            tile_sites;
          let opens =
            List.filter_map
              (fun k ->
                match moved_glob.(k) with
                | None -> None
                | Some moved ->
                  Some
                    {
                      Sites.open_layer =
                        ext.conductors.(k).Extract.Extraction.layer;
                      conductor = k;
                      moved;
                      open_net = ext.net_of.(k);
                      open_ca = open_ca_glob.(k);
                    })
              (List.init n Fun.id)
          in
          let cut_ca = Sites.cut_ca ~x_max:x_max_f pdf ~side:tech.Layout.Tech.cut_side in
          let cut_opens =
            List.filter_map
              (fun ci ->
                match cut_moved_glob.(ci) with
                | None -> None
                | Some cut_moved ->
                  let cut = ext.cuts.(ci) in
                  Some
                    {
                      Sites.cut_index = ci;
                      cut_mech = Sites.cut_mech ext cut;
                      cut_moved;
                      cut_net = ext.net_of.(List.hd cut.joins);
                      cut_ca;
                    })
              (List.init (Array.length ext.cuts) Fun.id)
          in
          let stuck = Sites.stuck ?pdf:options.Lift.pdf ext in
          Lift.finalise options (Lift.cands_of ext ~bridges ~opens ~cut_opens ~stuck))
    in
    let counters =
      {
        tiles = nt;
        connectivity =
          { computed = Atomic.get conn_computed; cached = Atomic.get conn_cached };
        sites =
          { computed = Atomic.get sites_computed; cached = Atomic.get sites_cached };
        critical_area =
          { computed = Atomic.get ca_computed; cached = Atomic.get ca_cached };
      }
    in
    if Obs.enabled obs then begin
      Obs.count obs "pipeline.connectivity.computed" counters.connectivity.computed;
      Obs.count obs "pipeline.connectivity.cached" counters.connectivity.cached;
      Obs.count obs "pipeline.sites.computed" counters.sites.computed;
      Obs.count obs "pipeline.sites.cached" counters.sites.cached;
      Obs.count obs "pipeline.critical_area.computed" counters.critical_area.computed;
      Obs.count obs "pipeline.critical_area.cached" counters.critical_area.cached;
      (* Work done, not just time: the sites counters stay 0 when every
         sites artefact is served from the cache. *)
      Obs.count obs "pipeline.sites.splits" (Atomic.get splits);
      Obs.count obs "pipeline.sites.net_adjacency" (Sites.nets_indexed sp);
      Obs.count obs "pipeline.rank.candidates" result.Lift.sites_considered;
      Obs.count obs "pipeline.rank.faults" (List.length result.Lift.faults)
    end;
    { result; extraction = ext; counters }
  end
