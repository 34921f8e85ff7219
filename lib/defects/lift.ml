type options = {
  pdf : Geom.Critical_area.size_pdf option;
  p_min : float;
  merge_equivalent : bool;
}

let default_options = { pdf = None; p_min = 3e-8; merge_equivalent = true }

type classes = {
  bridging : int;
  line_opens : int;
  contact_opens : int;
  stuck_opens : int;
}

let total c = c.bridging + c.line_opens + c.contact_opens + c.stuck_opens

type result = {
  faults : Faults.Fault.t list;
  classes : classes;
  sites_considered : int;
}

let probability tech mech ca_nm2 =
  tech.Layout.Tech.rel_density mech
  *. tech.Layout.Tech.d0_per_cm2
  *. Geom.Critical_area.nm2_to_cm2 ca_nm2

(* A candidate fault before id assignment. *)
type cand = { kind : Faults.Fault.kind; mechanism : string; prob : float; note : string }

(* Turn enumerated sites into fault candidates.  The site lists arrive in
   the canonical order ([Sites.bridges] then [opens] then [cut_opens] then
   [stuck], each in its own documented order), whether they came from the
   serial enumerators below or from the staged {!Pipeline}'s per-tile
   merge: candidate order decides fault ids, so both paths must feed the
   same order here. *)
let cands_of (ext : Extract.Extraction.t) ~bridges ~opens ~cut_opens ~stuck =
  let tech = ext.mask.Layout.Mask.tech in
  let name = Extract.Extraction.net_name ext in
  let bridges =
    List.map
      (fun (s : Sites.bridge_site) ->
        let mech = Layout.Tech.Short_on s.bridge_layer in
        {
          kind = Faults.Fault.Bridge { net_a = name s.net_a; net_b = name s.net_b };
          mechanism = Layout.Tech.mechanism_to_string mech;
          prob = probability tech mech s.bridge_ca;
          note = Printf.sprintf "on %s" (Layout.Layer.to_string s.bridge_layer);
        })
      bridges
  in
  let opens =
    List.map
      (fun (s : Sites.open_site) ->
        let mech = Layout.Tech.Open_on s.open_layer in
        {
          kind = Faults.Fault.Break { net = name s.open_net; moved = s.moved };
          mechanism = Layout.Tech.mechanism_to_string mech;
          prob = probability tech mech s.open_ca;
          note =
            Printf.sprintf "cut of %s shape %s" (Layout.Layer.to_string s.open_layer)
              (Geom.Rect.to_string ext.conductors.(s.conductor).Extract.Extraction.rect);
        })
      opens
  in
  let cut_opens =
    List.map
      (fun (s : Sites.cut_open_site) ->
        {
          kind = Faults.Fault.Break { net = name s.cut_net; moved = s.cut_moved };
          mechanism = Layout.Tech.mechanism_to_string s.cut_mech;
          prob = probability tech s.cut_mech s.cut_ca;
          note =
            Printf.sprintf "missing cut %s"
              (Geom.Rect.to_string ext.cuts.(s.cut_index).Extract.Extraction.cut_rect);
        })
      cut_opens
  in
  let stuck =
    List.map
      (fun (s : Sites.stuck_site) ->
        (* Stuck-open = missing gate poly over the channel. *)
        let mech = Layout.Tech.Open_on Layout.Layer.Poly in
        {
          kind = Faults.Fault.Stuck_open { device = s.channel.Extract.Extraction.device };
          mechanism = "channel_open";
          prob = probability tech mech s.stuck_ca;
          note = Printf.sprintf "channel of %s" s.channel.Extract.Extraction.device;
        })
      stuck
  in
  bridges @ opens @ cut_opens @ stuck

let candidates ?pdf (ext : Extract.Extraction.t) =
  cands_of ext ~bridges:(Sites.bridges ?pdf ext) ~opens:(Sites.opens ?pdf ext)
    ~cut_opens:(Sites.cut_opens ?pdf ext) ~stuck:(Sites.stuck ?pdf ext)

(* Equivalent candidates collapse into their first occurrence, which
   keeps its mechanism and note; probabilities fold left in list order,
   so every sum is the float a left-to-right scan produces. *)
let merge cands =
  List.map
    (fun (c, dups) -> List.fold_left (fun c d -> { c with prob = c.prob +. d.prob }) c dups)
    (Faults.Fault.classes (fun c -> c.kind) cands)

let classify faults =
  List.fold_left
    (fun cl (f : Faults.Fault.t) ->
      match f.kind with
      | Faults.Fault.Bridge _ -> { cl with bridging = cl.bridging + 1 }
      | Faults.Fault.Stuck_open _ -> { cl with stuck_opens = cl.stuck_opens + 1 }
      | Faults.Fault.Break _ ->
        let is_cut =
          String.length f.mechanism >= 7 && String.sub f.mechanism 0 7 = "contact"
          || f.mechanism = "via_open"
        in
        if is_cut then { cl with contact_opens = cl.contact_opens + 1 }
        else { cl with line_opens = cl.line_opens + 1 })
    { bridging = 0; line_opens = 0; contact_opens = 0; stuck_opens = 0 }
    faults

let finalise options cands =
  let sites_considered = List.length cands in
  let cands = if options.merge_equivalent then merge cands else cands in
  let cands = List.filter (fun c -> c.prob >= options.p_min) cands in
  let faults =
    List.mapi
      (fun i c ->
        Faults.Fault.make
          ~id:(Printf.sprintf "#%d" (i + 1))
          ~kind:c.kind ~mechanism:c.mechanism ~prob:c.prob ~note:c.note ())
      cands
  in
  { faults; classes = classify faults; sites_considered }

let run ?(options = default_options) ext =
  finalise options (candidates ?pdf:options.pdf ext)

(* Total order for the ranked list: probability (descending) is the
   ranking the paper cares about, but ties happen - equivalent-by-area
   sites on symmetric layouts - and [List.sort] is stable only against
   the input order, which a parallel pipeline must not depend on.  Break
   ties by fault class (bridges, then breaks, then stuck-opens), then by
   numeric site id, so the byte output is identical across runs, domain
   counts and enumeration strategies. *)
let kind_rank = function
  | Faults.Fault.Bridge _ -> 0
  | Faults.Fault.Break _ -> 1
  | Faults.Fault.Stuck_open _ -> 2

let id_number (f : Faults.Fault.t) =
  if String.length f.id > 1 && f.id.[0] = '#' then
    Option.value ~default:max_int
      (int_of_string_opt (String.sub f.id 1 (String.length f.id - 1)))
  else max_int

let ranked r =
  List.sort
    (fun (a : Faults.Fault.t) b ->
      let c = Float.compare b.prob a.prob in
      if c <> 0 then c
      else
        let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
        if c <> 0 then c else Int.compare (id_number a) (id_number b))
    r.faults

let pp_classes ppf c =
  Format.fprintf ppf "%d faults: %d bridging, %d line opens, %d contact/via opens, %d stuck open"
    (total c) c.bridging c.line_opens c.contact_opens c.stuck_opens

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%a@,sites considered: %d@," pp_classes r.classes
    r.sites_considered;
  List.iter (fun f -> Format.fprintf ppf "%a@," Faults.Fault.pp f) (ranked r);
  Format.fprintf ppf "@]"
