type result = {
  samples : int;
  effective : int;
  multi_effect : int;
  hits : (Faults.Fault.t * int) list;
}

(* Mechanism menu with Tab. 1 relative densities, split so each entry
   applies to one physical layer. *)
let mechanisms tech =
  let d m = tech.Layout.Tech.rel_density m in
  List.filter
    (fun (_, w) -> w > 0.0)
    [ (Layout.Tech.Short_on Layout.Layer.Ndiff, d (Layout.Tech.Short_on Layout.Layer.Ndiff));
      (Layout.Tech.Short_on Layout.Layer.Pdiff, d (Layout.Tech.Short_on Layout.Layer.Pdiff));
      (Layout.Tech.Short_on Layout.Layer.Poly, d (Layout.Tech.Short_on Layout.Layer.Poly));
      (Layout.Tech.Short_on Layout.Layer.Metal1, d (Layout.Tech.Short_on Layout.Layer.Metal1));
      (Layout.Tech.Short_on Layout.Layer.Metal2, d (Layout.Tech.Short_on Layout.Layer.Metal2));
      (Layout.Tech.Open_on Layout.Layer.Ndiff, d (Layout.Tech.Open_on Layout.Layer.Ndiff));
      (Layout.Tech.Open_on Layout.Layer.Pdiff, d (Layout.Tech.Open_on Layout.Layer.Pdiff));
      (Layout.Tech.Open_on Layout.Layer.Poly, d (Layout.Tech.Open_on Layout.Layer.Poly));
      (Layout.Tech.Open_on Layout.Layer.Metal1, d (Layout.Tech.Open_on Layout.Layer.Metal1));
      (Layout.Tech.Open_on Layout.Layer.Metal2, d (Layout.Tech.Open_on Layout.Layer.Metal2));
      (Layout.Tech.Contact_open_to Layout.Layer.Ndiff,
       d (Layout.Tech.Contact_open_to Layout.Layer.Ndiff));
      (Layout.Tech.Contact_open_to Layout.Layer.Poly,
       d (Layout.Tech.Contact_open_to Layout.Layer.Poly));
      (Layout.Tech.Via_open, d Layout.Tech.Via_open) ]

let pick_mechanism rng menu total =
  let x = Random.State.float rng total in
  let rec go acc = function
    | [] -> invalid_arg "Monte_carlo: empty mechanism menu"
    | [ (m, _) ] -> m
    | (m, w) :: rest -> if acc +. w >= x then m else go (acc +. w) rest
  in
  go 0.0 menu

(* Inverse CDF of the 1/x^3 density truncated to [x_min, x_max]. *)
let sample_diameter rng ~x_min ~x_max =
  let u = Random.State.float rng 1.0 in
  let r = x_min /. x_max in
  let denom = Float.sqrt (1.0 -. (u *. (1.0 -. (r *. r)))) in
  x_min /. denom

(* Does the defect square cut the conductor - cover a full cross-section
   of its narrow dimension?  (The same assumption the critical-area open
   profile makes.) *)
let cuts_conductor defect (c : Extract.Extraction.conductor) =
  match Geom.Rect.inter defect c.rect with
  | None -> false
  | Some i ->
    if Geom.Rect.is_degenerate i then false
    else if Geom.Rect.width c.rect <= Geom.Rect.height c.rect then
      (* narrow in x: the cut must span the full width *)
      i.Geom.Rect.x0 <= c.rect.Geom.Rect.x0 && i.Geom.Rect.x1 >= c.rect.Geom.Rect.x1
    else i.Geom.Rect.y0 <= c.rect.Geom.Rect.y0 && i.Geom.Rect.y1 >= c.rect.Geom.Rect.y1

let shorts_of (ext : Extract.Extraction.t) layer defect =
  let nets = ref [] in
  Array.iteri
    (fun i (c : Extract.Extraction.conductor) ->
      if Layout.Layer.equal c.layer layer && Geom.Rect.overlaps c.rect defect then begin
        let n = ext.net_of.(i) in
        if not (List.mem n !nets) then nets := n :: !nets
      end)
    ext.conductors;
  let rec pairs = function
    | [] | [ _ ] -> []
    | a :: rest -> List.map (fun b -> (min a b, max a b)) rest @ pairs rest
  in
  pairs (List.sort compare !nets)

let opens_of (ext : Extract.Extraction.t) layer defect =
  (* All conductors of the layer the defect cuts; one defect may sever
     several (the paper's "global multiple open"). *)
  let cut = ref [] in
  Array.iteri
    (fun i (c : Extract.Extraction.conductor) ->
      if Layout.Layer.equal c.layer layer && cuts_conductor defect c then cut := i :: !cut)
    ext.conductors;
  let cut = !cut in
  if cut = [] then []
  else begin
    let affected_nets = List.sort_uniq compare (List.map (fun i -> ext.net_of.(i)) cut) in
    List.filter_map
      (fun net ->
        match
          Sites.split_effect ext
            ~skip_conductor:(fun i -> List.mem i cut)
            ~skip_cut:(fun _ -> false)
            ~net
        with
        | Some moved ->
          Some (Faults.Fault.Break { net = Extract.Extraction.net_name ext net; moved })
        | None -> None)
      affected_nets
  end

let stuck_of (ext : Extract.Extraction.t) defect =
  List.filter_map
    (fun (c : Extract.Extraction.channel) ->
      (* Missing poly across the channel: the defect must span the gate
         length. *)
      let fake =
        { Extract.Extraction.layer = Layout.Layer.Poly; rect = c.channel_rect }
      in
      if cuts_conductor defect fake then
        Some (Faults.Fault.Stuck_open { device = c.device })
      else None)
    ext.channels

let cut_opens_of (ext : Extract.Extraction.t) ~want defect =
  let killed = ref [] in
  Array.iteri
    (fun ci (cut : Extract.Extraction.cut) ->
      let lower_matches =
        match want with
        | `Via -> Layout.Layer.equal cut.cut_layer Layout.Layer.Via
        | `Contact_to layer ->
          Layout.Layer.equal cut.cut_layer Layout.Layer.Contact
          && List.exists
               (fun j ->
                 Layout.Layer.equal ext.conductors.(j).Extract.Extraction.layer layer)
               cut.joins
      in
      if lower_matches && Geom.Rect.contains defect cut.cut_rect then killed := ci :: !killed)
    ext.cuts;
  let killed = !killed in
  if killed = [] then []
  else begin
    let affected =
      List.filter_map
        (fun ci ->
          match ext.cuts.(ci).Extract.Extraction.joins with
          | anchor :: _ -> Some ext.net_of.(anchor)
          | [] -> None)
        killed
      |> List.sort_uniq compare
    in
    List.filter_map
      (fun net ->
        match
          Sites.split_effect ext
            ~skip_conductor:(fun _ -> false)
            ~skip_cut:(fun ci -> List.mem ci killed)
            ~net
        with
        | Some moved ->
          Some (Faults.Fault.Break { net = Extract.Extraction.net_name ext net; moved })
        | None -> None)
      affected
  end

let run ?(seed = 42) ~samples (ext : Extract.Extraction.t) =
  let tech = ext.mask.Layout.Mask.tech in
  let rng = Random.State.make [| seed |] in
  let menu = mechanisms tech in
  let total_weight = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 menu in
  let bbox = Layout.Mask.bbox ext.mask in
  let x_max = float_of_int tech.Layout.Tech.defect_x_max in
  let margin = tech.Layout.Tech.defect_x_max in
  let die = Geom.Rect.expand bbox margin in
  let counts : (Faults.Fault.kind * string, int) Hashtbl.t = Hashtbl.create 64 in
  let effective = ref 0 and multi = ref 0 in
  for _ = 1 to samples do
    let mech = pick_mechanism rng menu total_weight in
    let d =
      sample_diameter rng ~x_min:(float_of_int tech.Layout.Tech.defect_x_min) ~x_max
    in
    let half = int_of_float (d /. 2.0) in
    let cx = die.Geom.Rect.x0 + Random.State.int rng (max 1 (Geom.Rect.width die)) in
    let cy = die.Geom.Rect.y0 + Random.State.int rng (max 1 (Geom.Rect.height die)) in
    let defect = Geom.Rect.make (cx - half) (cy - half) (cx + half) (cy + half) in
    let faults =
      match mech with
      | Layout.Tech.Short_on layer ->
        List.map
          (fun (a, b) ->
            Faults.Fault.Bridge
              { net_a = Extract.Extraction.net_name ext a;
                net_b = Extract.Extraction.net_name ext b })
          (shorts_of ext layer defect)
      | Layout.Tech.Open_on Layout.Layer.Poly ->
        opens_of ext Layout.Layer.Poly defect @ stuck_of ext defect
      | Layout.Tech.Open_on layer -> opens_of ext layer defect
      | Layout.Tech.Contact_open_to layer -> cut_opens_of ext ~want:(`Contact_to layer) defect
      | Layout.Tech.Via_open -> cut_opens_of ext ~want:`Via defect
    in
    if faults <> [] then begin
      incr effective;
      if List.length faults > 1 then incr multi;
      List.iter
        (fun kind ->
          let key = (Faults.Fault.canonical kind, Layout.Tech.mechanism_to_string mech) in
          Hashtbl.replace counts key
            (1 + Option.value (Hashtbl.find_opt counts key) ~default:0))
        faults
    end
  done;
  let hits =
    Hashtbl.fold
      (fun (kind, mechanism) n acc ->
        let prob =
          if !effective = 0 then 0.0 else float_of_int n /. float_of_int !effective
        in
        (Faults.Fault.make ~id:"MC" ~kind ~mechanism ~prob (), n) :: acc)
      counts []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
    |> List.mapi (fun i (f, n) ->
           ({ f with Faults.Fault.id = Printf.sprintf "MC%d" (i + 1) }, n))
  in
  { samples; effective = !effective; multi_effect = !multi; hits }

let agreement result faults =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 result.hits in
  if total = 0 then 0.0
  else begin
    let listed = Faults.Fault.covers faults in
    let matched =
      List.fold_left (fun acc (f, n) -> if listed f then acc + n else acc) 0 result.hits
    in
    float_of_int matched /. float_of_int total
  end

let pp_summary ppf r =
  Format.fprintf ppf
    "@[<v>defects sampled      %d@,topology-changing    %d (%.1f %%)@,\
     multi-fault defects  %d@,distinct faults      %d@]"
    r.samples r.effective
    (100.0 *. float_of_int r.effective /. float_of_int (max 1 r.samples))
    r.multi_effect (List.length r.hits)
