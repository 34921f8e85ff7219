type bridge_site = {
  bridge_layer : Layout.Layer.t;
  net_a : int;
  net_b : int;
  bridge_ca : float;
}

type open_site = {
  open_layer : Layout.Layer.t;
  conductor : int;
  moved : Faults.Fault.terminal list;
  open_net : int;
  open_ca : float;
}

type cut_open_site = {
  cut_index : int;
  cut_mech : Layout.Tech.mechanism;
  cut_moved : Faults.Fault.terminal list;
  cut_net : int;
  cut_ca : float;
}

type stuck_site = {
  channel : Extract.Extraction.channel;
  stuck_ca : float;
}

let tech_of (ext : Extract.Extraction.t) = ext.mask.Layout.Mask.tech

let pdf_of ?pdf ext =
  match pdf with
  | Some p -> p
  | None -> Layout.Tech.size_pdf (tech_of ext)

(* Weighted short critical area: closed form for the cubic pdf, numeric
   integration otherwise. *)
let short_ca ~x_max pdf ~spacing ~length =
  match pdf with
  | Geom.Critical_area.Cubic { x_min } ->
    Geom.Critical_area.weighted_short_cubic ~x_max ~x_min ~spacing ~length ()
  | Geom.Critical_area.Uniform _ ->
    Geom.Critical_area.weighted pdf (Geom.Critical_area.short_area ~spacing ~length)

let open_ca_of ~x_max pdf ~width ~length =
  match pdf with
  | Geom.Critical_area.Cubic { x_min } ->
    Geom.Critical_area.weighted_open_cubic ~x_max ~x_min ~width ~length ()
  | Geom.Critical_area.Uniform _ ->
    Geom.Critical_area.weighted pdf (Geom.Critical_area.open_area ~width ~length)

let x_max_of ext = float_of_int (tech_of ext).Layout.Tech.defect_x_max

let bridges ?pdf (ext : Extract.Extraction.t) =
  let pdf = pdf_of ?pdf ext in
  let x_max = (tech_of ext).Layout.Tech.defect_x_max in
  let acc : (Layout.Layer.t * int * int, float ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun layer ->
      let members =
        Array.of_seq
          (Seq.filter_map
             (fun (i, (c : Extract.Extraction.conductor)) ->
               if Layout.Layer.equal c.layer layer then Some (i, c.rect) else None)
             (Array.to_seqi ext.conductors))
      in
      let rects = Array.map snd members in
      List.iter
        (fun (a, b, spacing, length) ->
          let ia = fst members.(a) and ib = fst members.(b) in
          let na = ext.net_of.(ia) and nb = ext.net_of.(ib) in
          if na <> nb then begin
            let key = (layer, min na nb, max na nb) in
            let ca = short_ca ~x_max:(x_max_of ext) pdf ~spacing ~length in
            match Hashtbl.find_opt acc key with
            | Some r -> r := !r +. ca
            | None -> Hashtbl.add acc key (ref ca)
          end)
        (Geom.Rect_set.close_pairs ~within:x_max rects))
    (List.filter Layout.Layer.conducting Layout.Layer.all);
  Hashtbl.fold
    (fun (bridge_layer, net_a, net_b) ca l ->
      { bridge_layer; net_a; net_b; bridge_ca = !ca } :: l)
    acc []
  |> List.sort compare

(* Effect of suppressing conductor [k] (or cut [c]): group the net's
   terminals by the component their anchor lands in; terminals anchored on
   the suppressed conductor form their own (disconnected) group.  The
   largest group keeps the original net; the others move.  [None] when the
   topology is unchanged (at most one group).

   The recomputation is net-local: removing shapes only removes edges, and
   every edge between two members of a net lies entirely inside the net
   (same-layer touching pairs connect same-net conductors by definition;
   a cut's join list is one net's conductors), so rebuilding connectivity
   over just the net's members and cuts is exact - and orders of magnitude
   cheaper than the global re-unify it replaces on mega-layouts, where
   LIFT runs it once per conductor and once per cut.

   Group identity is canonical: each attached group is keyed by the
   smallest global conductor index anchoring one of its terminals (the
   detached group keeps the -1 sentinel), never by a union-find root, so
   the winner of a population tie - and with it the moved-terminal list -
   is the same whatever connectivity implementation produced the
   components. *)

(* A net's connectivity graph, built once: same-layer touching pairs
   among its members (canonical layer order) and each of its cuts with
   the members it joins, all as conductor indices.  A split drops the
   edges of the suppressed shapes and unions the rest; since group keys
   are canonical, the union order cannot show. *)
type adjacency = {
  adj_pairs : (int * int) array;  (* touching pairs, as conductor indices *)
  adj_cuts : (int * int list) list;  (* cut index, joined conductor indices *)
}

type splitter = {
  sp_ext : Extract.Extraction.t;
  sp_members : int array array;  (* net -> ascending conductor indices *)
  sp_pos : int array;  (* conductor -> its position in its net's members *)
  sp_cuts : int list array;  (* net -> ascending indices of its cuts *)
  sp_terms : Extract.Extraction.terminal list array;  (* net -> terminals *)
  sp_adj : adjacency option Atomic.t array;
      (* net -> its graph, built by the first split of the net; two
         domains racing on one net build equal graphs, either wins *)
}

let splitter (ext : Extract.Extraction.t) =
  let nets = Extract.Extraction.net_count ext in
  let members = Array.make nets [] in
  Array.iteri
    (fun k net -> members.(net) <- k :: members.(net))
    ext.net_of;
  let cuts = Array.make nets [] in
  Array.iteri
    (fun ci (c : Extract.Extraction.cut) ->
      match c.joins with
      | [] -> ()
      | anchor :: _ -> cuts.(ext.net_of.(anchor)) <- ci :: cuts.(ext.net_of.(anchor)))
    ext.cuts;
  let terms = Array.make nets [] in
  List.iter
    (fun (t : Extract.Extraction.terminal) ->
      let net = ext.net_of.(t.conductor) in
      terms.(net) <- t :: terms.(net))
    ext.terminals;
  let members = Array.map (fun l -> Array.of_list (List.rev l)) members in
  let pos = Array.make (Array.length ext.net_of) 0 in
  Array.iter (Array.iteri (fun p k -> pos.(k) <- p)) members;
  {
    sp_ext = ext;
    sp_members = members;
    sp_pos = pos;
    sp_cuts = Array.map List.rev cuts;
    sp_terms = Array.map List.rev terms;
    sp_adj = Array.init nets (fun _ -> Atomic.make None);
  }

let build_adjacency sp net =
  let ext = sp.sp_ext in
  let members = sp.sp_members.(net) in
  let adj_pairs =
    List.concat_map
      (fun layer ->
        let on_layer =
          Array.of_seq
            (Seq.filter
               (fun g ->
                 Layout.Layer.equal ext.conductors.(g).Extract.Extraction.layer layer)
               (Array.to_seq members))
        in
        List.map
          (fun (a, b) -> (on_layer.(a), on_layer.(b)))
          (Geom.Rect_set.touching_pairs
             (Array.map (fun g -> ext.conductors.(g).Extract.Extraction.rect) on_layer)))
      Extract.Connectivity.conducting_layers
  in
  {
    adj_pairs = Array.of_list adj_pairs;
    adj_cuts = List.map (fun ci -> (ci, ext.cuts.(ci).joins)) sp.sp_cuts.(net);
  }

let adjacency sp net =
  match Atomic.get sp.sp_adj.(net) with
  | Some adj -> adj
  | None ->
    let adj = build_adjacency sp net in
    Atomic.set sp.sp_adj.(net) (Some adj);
    adj

let nets_indexed sp =
  Array.fold_left
    (fun n slot -> if Option.is_some (Atomic.get slot) then n + 1 else n)
    0 sp.sp_adj

let split sp ~skip_conductor ~skip_cut ~net =
  let adj = adjacency sp net in
  let pos g = sp.sp_pos.(g) in
  let uf = Geom.Union_find.create (Array.length sp.sp_members.(net)) in
  (* Touching pairs whose two conductors survive... *)
  Array.iter
    (fun (a, b) ->
      if not (skip_conductor a || skip_conductor b) then
        ignore (Geom.Union_find.union uf (pos a) (pos b)))
    adj.adj_pairs;
  (* ...and the net's surviving cuts re-joining their surviving
     conductors. *)
  List.iter
    (fun (ci, joins) ->
      if not (skip_cut ci) then begin
        match List.filter (fun g -> not (skip_conductor g)) joins with
        | first :: rest ->
          let pf = pos first in
          List.iter (fun g -> ignore (Geom.Union_find.union uf pf (pos g))) rest
        | [] -> ()
      end)
    adj.adj_cuts;
  (* Group terminals by component, keyed canonically. *)
  let groups : (int, (int * Faults.Fault.terminal list) ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let detached = ref [] and have_detached = ref false in
  List.iter
    (fun (t : Extract.Extraction.terminal) ->
      let term = { Faults.Fault.device = t.device; port = t.port } in
      if skip_conductor t.conductor then begin
        have_detached := true;
        detached := term :: !detached
      end
      else begin
        let root = Geom.Union_find.find uf (pos t.conductor) in
        match Hashtbl.find_opt groups root with
        | Some r ->
          let key, terms = !r in
          r := (min key t.conductor, term :: terms)
        | None -> Hashtbl.add groups root (ref (t.conductor, [ term ]))
      end)
    sp.sp_terms.(net);
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
            (* Prefer the most populous group; never keep the detached
               group (-1) if an attached one exists. *)
            if key = -1 then best
            else if bkey = -1 then Some (key, members)
            else if List.length members > List.length bmembers then Some (key, members)
            else best)
        None group_list
    in
    let keep_key = match keep with Some (k, _) -> k | None -> assert false in
    let moved =
      List.concat_map
        (fun (key, members) -> if key = keep_key then [] else members)
        group_list
    in
    if moved = [] then None else Some moved

let split_effect (ext : Extract.Extraction.t) ~skip_conductor ~skip_cut ~net =
  split (splitter ext) ~skip_conductor ~skip_cut ~net

let opens ?pdf (ext : Extract.Extraction.t) =
  let pdf = pdf_of ?pdf ext in
  let sp = splitter ext in
  Array.to_list
    (Array.mapi
       (fun k (c : Extract.Extraction.conductor) ->
         let net = ext.net_of.(k) in
         match
           split sp ~skip_conductor:(Int.equal k) ~skip_cut:(fun _ -> false) ~net
         with
         | None -> None
         | Some moved ->
           let w = min (Geom.Rect.width c.rect) (Geom.Rect.height c.rect)
           and l = max (Geom.Rect.width c.rect) (Geom.Rect.height c.rect) in
           Some
             {
               open_layer = c.layer;
               conductor = k;
               moved;
               open_net = net;
               open_ca = open_ca_of ~x_max:(x_max_of ext) pdf ~width:w ~length:l;
             })
       ext.conductors)
  |> List.filter_map Fun.id

let cut_mech (ext : Extract.Extraction.t) (cut : Extract.Extraction.cut) =
  match cut.cut_layer with
  | Layout.Layer.Via -> Layout.Tech.Via_open
  | Layout.Layer.Contact ->
    (* Which lower layer does this contact land on? *)
    let lower =
      List.find_map
        (fun j ->
          let layer = ext.conductors.(j).Extract.Extraction.layer in
          match layer with
          | Layout.Layer.Poly | Layout.Layer.Ndiff | Layout.Layer.Pdiff ->
            Some layer
          | Layout.Layer.Metal1 | Layout.Layer.Metal2 | Layout.Layer.Contact
          | Layout.Layer.Via | Layout.Layer.Nwell ->
            None)
        cut.joins
    in
    Layout.Tech.Contact_open_to (Option.value lower ~default:Layout.Layer.Poly)
  | Layout.Layer.Ndiff | Layout.Layer.Pdiff | Layout.Layer.Poly
  | Layout.Layer.Metal1 | Layout.Layer.Metal2 | Layout.Layer.Nwell ->
    assert false

let cut_ca ~x_max pdf ~side =
  Geom.Critical_area.weighted ~x_max pdf
    (Geom.Critical_area.contact_open_area ~side)

let cut_opens ?pdf (ext : Extract.Extraction.t) =
  let pdf = pdf_of ?pdf ext in
  let tech = tech_of ext in
  let sp = splitter ext in
  let ca = cut_ca ~x_max:(x_max_of ext) pdf ~side:tech.Layout.Tech.cut_side in
  Array.to_list
    (Array.mapi
       (fun ci (cut : Extract.Extraction.cut) ->
         match cut.joins with
         | [] | [ _ ] -> None
         | anchor :: _ ->
           let net = ext.net_of.(anchor) in
           (match
              split sp ~skip_conductor:(fun _ -> false) ~skip_cut:(Int.equal ci) ~net
            with
           | None -> None
           | Some moved ->
             Some
               {
                 cut_index = ci;
                 cut_mech = cut_mech ext cut;
                 cut_moved = moved;
                 cut_net = net;
                 cut_ca = ca;
               }))
       ext.cuts)
  |> List.filter_map Fun.id

let stuck ?pdf (ext : Extract.Extraction.t) =
  let pdf = pdf_of ?pdf ext in
  List.map
    (fun (c : Extract.Extraction.channel) ->
      (* Missing gate poly across the channel: the defect must span the
         gate length somewhere along the width, leaving a channel that can
         never invert. *)
      { channel = c;
        stuck_ca = open_ca_of ~x_max:(x_max_of ext) pdf ~width:c.l_nm ~length:c.w_nm })
    ext.channels
