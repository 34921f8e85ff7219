(* The canonical same-layer adjacency order; every connectivity path
   (global, tiled, net-local) must walk layers in this order so union
   sequences - and with them any root-sensitive downstream choice -
   agree between implementations. *)
let conducting_layers =
  [ Layout.Layer.Ndiff; Layout.Layer.Pdiff; Layout.Layer.Poly; Layout.Layer.Metal1;
    Layout.Layer.Metal2 ]

let cut_targets = function
  | Layout.Layer.Contact ->
    [ Layout.Layer.Metal1; Layout.Layer.Poly; Layout.Layer.Ndiff; Layout.Layer.Pdiff ]
  | Layout.Layer.Via -> [ Layout.Layer.Metal1; Layout.Layer.Metal2 ]
  | Layout.Layer.Ndiff | Layout.Layer.Pdiff | Layout.Layer.Poly | Layout.Layer.Metal1
  | Layout.Layer.Metal2 | Layout.Layer.Nwell ->
    invalid_arg "Connectivity: not a cut layer"

let unify ~conductors ~cut_shapes ~skip_conductor ~skip_cut =
  let n = Array.length conductors in
  let uf = Geom.Union_find.create n in
  (* Same-layer adjacency. *)
  List.iter
    (fun layer ->
      let members =
        Array.of_seq
          (Seq.filter_map
             (fun (i, (c : Extraction.conductor)) ->
               if Layout.Layer.equal c.layer layer && not (skip_conductor i) then
                 Some (i, c.rect)
               else None)
             (Array.to_seqi conductors))
      in
      let rects = Array.map snd members in
      List.iter
        (fun (a, b) ->
          ignore (Geom.Union_find.union uf (fst members.(a)) (fst members.(b))))
        (Geom.Rect_set.touching_pairs rects))
    conducting_layers;
  (* Vertical connections through cuts: each cut joins, in ascending
     index order, the target-layer conductors it touches. *)
  let index =
    Geom.Rect_index.build (Array.map (fun (c : Extraction.conductor) -> c.rect) conductors)
  in
  let joins =
    Array.mapi
      (fun ci (cut_layer, cut_rect) ->
        if skip_cut ci then []
        else begin
          let targets = cut_targets cut_layer in
          let joined =
            List.filter
              (fun i ->
                let (c : Extraction.conductor) = conductors.(i) in
                (not (skip_conductor i))
                && List.exists (Layout.Layer.equal c.layer) targets
                && Geom.Rect.touches c.rect cut_rect)
              (Geom.Rect_index.near index cut_rect)
          in
          (match joined with
          | first :: rest -> List.iter (fun i -> ignore (Geom.Union_find.union uf first i)) rest
          | [] -> ());
          joined
        end)
      cut_shapes
  in
  (uf, joins)

(* --- Tile-aware adjacency ---------------------------------------------- *)

(* The per-tile half of the staged pipeline's Connectivity stage: pairs
   and cut joins are computed inside a tile's margin window and owned by
   exactly one tile, so the union over all tiles reproduces the global
   adjacency with no duplicates and no misses.

   Ownership anchors on the point p = (max x0s, max y0s) of the two
   rectangles: for touching pairs p lies on both (closed intervals), for
   facing pairs p lies on one and within the facing gap of the other, so
   any window whose margin covers the maximum defect size contains both
   members.  Results are in window-local member positions - that is what
   makes them cacheable across runs in which global indices shift. *)

let pair_anchor (a : Geom.Rect.t) (b : Geom.Rect.t) =
  (max a.Geom.Rect.x0 b.Geom.Rect.x0, max a.Geom.Rect.y0 b.Geom.Rect.y0)

let tile_pairs ~(conductors : Extraction.conductor array) ~(members : int array)
    ~owns =
  List.concat_map
    (fun layer ->
      let positions =
        Array.of_seq
          (Seq.filter
             (fun p ->
               Layout.Layer.equal conductors.(members.(p)).Extraction.layer layer)
             (Seq.init (Array.length members) Fun.id))
      in
      let rects =
        Array.map (fun p -> conductors.(members.(p)).Extraction.rect) positions
      in
      List.filter_map
        (fun (a, b) ->
          let x, y = pair_anchor rects.(a) rects.(b) in
          if owns ~x ~y then Some (positions.(a), positions.(b)) else None)
        (Geom.Rect_set.touching_pairs rects))
    conducting_layers

let tile_cut_joins ~(conductors : Extraction.conductor array)
    ~(members : int array) ~cut_shapes ~(owned_cuts : int array) =
  Array.map
    (fun ci ->
      let cut_layer, cut_rect = cut_shapes.(ci) in
      let targets = cut_targets cut_layer in
      let joined = ref [] in
      for p = Array.length members - 1 downto 0 do
        let (c : Extraction.conductor) = conductors.(members.(p)) in
        if
          List.exists (Layout.Layer.equal c.Extraction.layer) targets
          && Geom.Rect.touches c.Extraction.rect cut_rect
        then joined := p :: !joined
      done;
      !joined)
    owned_cuts
