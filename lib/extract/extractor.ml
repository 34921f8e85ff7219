exception Extract_error of string

type options = {
  nmos_model : Netlist.Device.mos_model;
  pmos_model : Netlist.Device.mos_model;
  nmos_bulk : string;
  pmos_bulk : string;
  cap_per_nm2 : float;
}

let default_options =
  {
    nmos_model = Netlist.Device.default_nmos;
    pmos_model = Netlist.Device.default_pmos;
    nmos_bulk = "0";
    pmos_bulk = "1";
    cap_per_nm2 = 1e-21;
  }

let err fmt = Format.kasprintf (fun m -> raise (Extract_error m)) fmt

(* Channels: every poly-over-diffusion overlap region.  Two poly shapes
   running along the same track (a gate strip plus the wire feeding it)
   produce coincident intersection rectangles describing one physical
   channel; keep only maximal regions.  The result is sorted, so the
   order in which the index yields candidates cannot show. *)
let dedupe_channels chans =
  let chans = List.sort_uniq compare chans in
  let arr = Array.of_list chans in
  let index = Geom.Rect_index.build (Array.map snd arr) in
  let maximal (kind, r) =
    not
      (List.exists
         (fun j ->
           let k2, r2 = arr.(j) in
           k2 = kind && not (Geom.Rect.equal r r2) && Geom.Rect.contains r2 r)
         (Geom.Rect_index.near index r))
  in
  List.filter maximal chans

let find_channels mask =
  let poly = Array.of_list (Layout.Mask.on mask Layout.Layer.Poly) in
  let index = Geom.Rect_index.build poly in
  let overlaps kind diff_layer =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun p ->
            match Geom.Rect.inter poly.(p) d with
            | Some i when not (Geom.Rect.is_degenerate i) -> Some (kind, i)
            | Some _ | None -> None)
          (Geom.Rect_index.near index d))
      (Layout.Mask.on mask diff_layer)
  in
  dedupe_channels (overlaps `N Layout.Layer.Ndiff @ overlaps `P Layout.Layer.Pdiff)

(* The conductor array: diffusion split at channels, then poly and metals
   verbatim.  Each diffusion shape is cut only by the channels touching
   it, in channel order: any other channel leaves every piece of the
   shape whole ([Rect.subtract r c = [r]]), so the pieces and their
   order equal [Rect_set.subtract_all] over the whole channel list. *)
let build_conductors mask channel_rects =
  let chans = Array.of_list channel_rects in
  let index = Geom.Rect_index.build chans in
  let pieces layer =
    List.concat_map
      (fun d ->
        Geom.Rect_set.subtract_all [ d ]
          (List.filter_map
             (fun j ->
               match Geom.Rect.inter chans.(j) d with
               | Some _ -> Some chans.(j)
               | None -> None)
             (Geom.Rect_index.near index d)))
      (Layout.Mask.on mask layer)
    |> List.map (fun rect -> { Extraction.layer; rect })
  in
  let whole layer =
    List.map (fun rect -> { Extraction.layer; rect }) (Layout.Mask.on mask layer)
  in
  Array.of_list
    (pieces Layout.Layer.Ndiff @ pieces Layout.Layer.Pdiff @ whole Layout.Layer.Poly
    @ whole Layout.Layer.Metal1 @ whole Layout.Layer.Metal2)

let cut_shapes mask =
  Array.of_list
    (List.map (fun r -> (Layout.Layer.Contact, r)) (Layout.Mask.on mask Layout.Layer.Contact)
    @ List.map (fun r -> (Layout.Layer.Via, r)) (Layout.Mask.on mask Layout.Layer.Via))

(* Net ids from union-find roots, numbered in order of smallest conductor
   index for determinism. *)
let number_nets uf n =
  let net_of = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let r = Geom.Union_find.find uf i in
    if net_of.(r) = -1 then begin
      net_of.(r) <- !next;
      incr next
    end;
    net_of.(i) <- net_of.(r)
  done;
  (net_of, !next)

let name_nets mask (conductors : Extraction.conductor array) net_of net_total =
  let names = Array.make net_total "" in
  let used = Hashtbl.create 16 in
  List.iter
    (fun (l : Layout.Mask.label) ->
      let found = ref false in
      Array.iteri
        (fun i (c : Extraction.conductor) ->
          if (not !found)
             && Layout.Layer.equal c.layer l.layer
             && Geom.Rect.contains_point c.rect l.at
          then begin
            found := true;
            let id = net_of.(i) in
            if names.(id) = "" then begin
              let name =
                if Hashtbl.mem used l.net then begin
                  (* Same label on two distinct nets: a designer error we
                     surface by suffixing rather than silently merging. *)
                  let k = Hashtbl.find used l.net + 1 in
                  Hashtbl.replace used l.net k;
                  Printf.sprintf "%s#%d" l.net k
                end
                else begin
                  Hashtbl.add used l.net 1;
                  l.net
                end
              in
              names.(id) <- name
            end
          end)
        conductors;
      if not !found then
        err "label %S at %s on %s hits no conductor" l.net
          (Geom.Point.to_string l.at) (Layout.Layer.to_string l.layer))
    mask.Layout.Mask.labels;
  Array.iteri (fun id n -> if n = "" then names.(id) <- Printf.sprintf "n%d" id) names;
  names

(* MOSFET recognition: the diffusion pieces flanking a channel on opposite
   sides are its source and drain; the poly shape above is its gate. *)
let recognise_mos mask conductors (channels : ([ `N | `P ] * Geom.Rect.t) list) =
  let index =
    Geom.Rect_index.build (Array.map (fun (c : Extraction.conductor) -> c.rect) conductors)
  in
  let find_gate ch =
    let found =
      List.find_opt
        (fun i ->
          let (c : Extraction.conductor) = conductors.(i) in
          Layout.Layer.equal c.layer Layout.Layer.Poly && Geom.Rect.overlaps c.rect ch)
        (Geom.Rect_index.near index ch)
    in
    match found with
    | Some i -> i
    | None -> err "channel %s has no poly gate" (Geom.Rect.to_string ch)
  in
  let diff_layer = function
    | `N -> Layout.Layer.Ndiff
    | `P -> Layout.Layer.Pdiff
  in
  List.mapi
    (fun k (kind, ch) ->
      let layer = diff_layer kind in
      let nearby = Geom.Rect_index.near index ch in
      let neighbours side =
        let ok (c : Extraction.conductor) =
          Layout.Layer.equal c.layer layer
          && Geom.Rect.touches c.rect ch
          &&
          match side with
          | `Left -> c.rect.Geom.Rect.x1 <= ch.Geom.Rect.x0
          | `Right -> c.rect.Geom.Rect.x0 >= ch.Geom.Rect.x1
          | `Below -> c.rect.Geom.Rect.y1 <= ch.Geom.Rect.y0
          | `Above -> c.rect.Geom.Rect.y0 >= ch.Geom.Rect.y1
        in
        List.find_opt (fun i -> ok conductors.(i)) nearby
      in
      let source, drain, w_nm, l_nm =
        match (neighbours `Left, neighbours `Right, neighbours `Below, neighbours `Above) with
        | Some l, Some r, _, _ ->
          (l, r, Geom.Rect.height ch, Geom.Rect.width ch)
        | _, _, Some b, Some a ->
          (b, a, Geom.Rect.width ch, Geom.Rect.height ch)
        | _ -> err "channel %s lacks source/drain on opposite sides" (Geom.Rect.to_string ch)
      in
      let device =
        match Layout.Mask.hint_for mask ch with
        | Some name -> name
        | None -> Printf.sprintf "MX%d" (k + 1)
      in
      {
        Extraction.device;
        kind;
        channel_rect = ch;
        w_nm;
        l_nm;
        gate = find_gate ch;
        source;
        drain;
      })
    channels

(* Plate capacitors: a hint named [C*] marks a poly-metal2 overlap. *)
let recognise_caps ~options mask (conductors : Extraction.conductor array) =
  List.filter_map
    (fun (h : Layout.Mask.device_hint) ->
      if String.length h.name > 0 && (h.name.[0] = 'C' || h.name.[0] = 'c') then begin
        (* The hint region may clip wire stubs feeding the plate; the
           plate proper is the conductor with the largest overlap. *)
        let plate layer =
          let best = ref None in
          Array.iteri
            (fun i (c : Extraction.conductor) ->
              if Layout.Layer.equal c.layer layer then begin
                match Geom.Rect.inter c.rect h.channel with
                | Some ov when not (Geom.Rect.is_degenerate ov) ->
                  let a = Geom.Rect.area ov in
                  (match !best with
                  | Some (_, a0) when a0 >= a -> ()
                  | Some _ | None -> best := Some (i, a))
                | Some _ | None -> ()
              end)
            conductors;
          match !best with
          | Some (i, _) -> i
          | None ->
            err "capacitor %s has no %s plate" h.name (Layout.Layer.to_string layer)
        in
        let p_poly = plate Layout.Layer.Poly and p_m2 = plate Layout.Layer.Metal2 in
        let area =
          match Geom.Rect.inter conductors.(p_poly).rect conductors.(p_m2).rect with
          | Some i -> Geom.Rect.area i
          | None -> err "capacitor %s plates do not overlap" h.name
        in
        Some (h.name, p_poly, p_m2, float_of_int area *. options.cap_per_nm2)
      end
      else None)
    mask.Layout.Mask.hints

(* The geometry-only first half of extraction: everything that does not
   need connectivity.  The staged pipeline computes it once per run, then
   builds the union-find from per-tile (possibly cached) adjacency and
   hands both back to [assemble]; the classic [extract] below is the same
   two halves around a global [Connectivity.unify]. *)
type skeleton = {
  sk_mask : Layout.Mask.t;
  sk_channels : ([ `N | `P ] * Geom.Rect.t) list;
  sk_conductors : Extraction.conductor array;
  sk_cut_shapes : (Layout.Layer.t * Geom.Rect.t) array;
}

let skeleton mask =
  let sk_channels = find_channels mask in
  let channel_rects = List.map snd sk_channels in
  {
    sk_mask = mask;
    sk_channels;
    sk_conductors = build_conductors mask channel_rects;
    sk_cut_shapes = cut_shapes mask;
  }

let assemble ?(options = default_options) sk ~uf ~joins =
  let mask = sk.sk_mask in
  let channel_list = sk.sk_channels in
  let conductors = sk.sk_conductors in
  let cut_shapes = sk.sk_cut_shapes in
  let net_of, net_total = number_nets uf (Array.length conductors) in
  let net_names = name_nets mask conductors net_of net_total in
  let channels = recognise_mos mask conductors channel_list in
  let caps = recognise_caps ~options mask conductors in
  let net i = net_names.(net_of.(i)) in
  let mos_devices =
    List.map
      (fun (c : Extraction.channel) ->
        let model, bulk =
          match c.kind with
          | `N -> (options.nmos_model, options.nmos_bulk)
          | `P -> (options.pmos_model, options.pmos_bulk)
        in
        Netlist.Device.M
          {
            name = c.device;
            d = net c.drain;
            g = net c.gate;
            s = net c.source;
            b = bulk;
            model;
            w = float_of_int c.w_nm *. 1e-9;
            l = float_of_int c.l_nm *. 1e-9;
          })
      channels
  in
  let cap_devices =
    List.map
      (fun (name, p_poly, p_m2, value) ->
        Netlist.Device.C { name; n1 = net p_poly; n2 = net p_m2; value; ic = None })
      caps
  in
  let circuit =
    Netlist.Circuit.of_devices
      ("extracted: " ^ mask.Layout.Mask.tech.Layout.Tech.name)
      (mos_devices @ cap_devices)
  in
  let terminals =
    List.concat_map
      (fun (c : Extraction.channel) ->
        [
          { Extraction.device = c.device; port = 0; conductor = c.drain };
          { Extraction.device = c.device; port = 1; conductor = c.gate };
          { Extraction.device = c.device; port = 2; conductor = c.source };
        ])
      channels
    @ List.concat_map
        (fun (name, p_poly, p_m2, _) ->
          [
            { Extraction.device = name; port = 0; conductor = p_poly };
            { Extraction.device = name; port = 1; conductor = p_m2 };
          ])
        caps
  in
  {
    Extraction.mask;
    conductors;
    net_of;
    net_names;
    cuts =
      Array.mapi
        (fun i (cut_layer, cut_rect) -> { Extraction.cut_layer; cut_rect; joins = joins.(i) })
        cut_shapes;
    channels;
    circuit;
    terminals;
  }

let extract ?options mask =
  let sk = skeleton mask in
  let uf, joins =
    Connectivity.unify ~conductors:sk.sk_conductors ~cut_shapes:sk.sk_cut_shapes
      ~skip_conductor:(fun _ -> false)
      ~skip_cut:(fun _ -> false)
  in
  assemble ?options sk ~uf ~joins
