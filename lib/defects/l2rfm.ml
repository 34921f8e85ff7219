type result = {
  faults : Faults.Fault.t list;
  per_device : (string * int) list;
}

(* A single-element template layout, extracted and LIFT-analysed. *)
let mos_template ~name ~kind ~w_nm ~l_nm =
  let b = Layout.Builder.create Layout.Tech.default in
  ignore
    (Layout.Builder.mos b ~name ~kind ~at:(Geom.Point.make 0 0) ~w:w_nm ~l:l_nm
       ~contact_cuts:2 ());
  Extract.Extractor.extract (Layout.Builder.finish b)

let cap_template ~name ~value =
  let b = Layout.Builder.create Layout.Tech.default in
  let side =
    int_of_float
      (Float.sqrt (value /. Extract.Extractor.default_options.Extract.Extractor.cap_per_nm2))
  in
  let plate = Geom.Rect.make 0 0 (max side 2000) (max side 2000) in
  Layout.Builder.rect b Layout.Layer.Poly plate;
  Layout.Builder.rect b Layout.Layer.Metal2 plate;
  Layout.Builder.hint b name plate;
  Extract.Extractor.extract (Layout.Builder.finish b)

(* Template net id -> schematic net, via the device's recognised
   terminals. *)
let mos_net_map (ext : Extract.Extraction.t) ~d ~g ~s =
  match ext.channels with
  | [ c ] ->
    [ (ext.net_of.(c.Extract.Extraction.drain), d);
      (ext.net_of.(c.Extract.Extraction.gate), g);
      (ext.net_of.(c.Extract.Extraction.source), s) ]
  | _ -> invalid_arg "L2rfm: template must contain exactly one channel"

let cap_net_map (ext : Extract.Extraction.t) ~name ~n1 ~n2 =
  let terminal port =
    match
      List.find_opt
        (fun (t : Extract.Extraction.terminal) -> t.device = name && t.port = port)
        ext.terminals
    with
    | Some t -> ext.net_of.(t.conductor)
    | None -> invalid_arg "L2rfm: capacitor template lacks terminals"
  in
  [ (terminal 0, n1); (terminal 1, n2) ]

(* Rewrite a template fault onto schematic nets; [None] when the fault
   touches a net outside the element (cannot happen in a well-formed
   template) or degenerates (bridge across one net, e.g. a diode-connected
   device's gate-drain short). *)
let rename_fault net_names map (f : Faults.Fault.t) =
  let net tmpl_name =
    let id =
      let found = ref None in
      Array.iteri (fun i n -> if n = tmpl_name then found := Some i) net_names;
      !found
    in
    Option.bind id (fun id -> List.assoc_opt id map)
  in
  match f.kind with
  | Faults.Fault.Bridge { net_a; net_b } -> begin
    match (net net_a, net net_b) with
    | Some a, Some b when a <> b ->
      Some { f with kind = Faults.Fault.Bridge { net_a = a; net_b = b } }
    | _ -> None
  end
  | Faults.Fault.Break { net = n; moved } -> begin
    match net n with
    | Some n -> Some { f with kind = Faults.Fault.Break { net = n; moved } }
    | None -> None
  end
  | Faults.Fault.Stuck_open _ -> Some f

let element_faults ~options dev =
  match dev with
  | Netlist.Device.M { name; d; g; s; model; w; l; _ } ->
    let kind =
      match model.Netlist.Device.kind with
      | Netlist.Device.Nmos -> `N
      | Netlist.Device.Pmos -> `P
    in
    let ext =
      mos_template ~name ~kind
        ~w_nm:(int_of_float (w *. 1e9))
        ~l_nm:(int_of_float (l *. 1e9))
    in
    let map = mos_net_map ext ~d ~g ~s in
    let lift = Lift.run ~options ext in
    List.filter_map
      (rename_fault ext.Extract.Extraction.net_names map)
      lift.Lift.faults
  | Netlist.Device.C { name; n1; n2; value; _ } ->
    let ext = cap_template ~name ~value in
    let map = cap_net_map ext ~name ~n1 ~n2 in
    let lift = Lift.run ~options ext in
    List.filter_map
      (rename_fault ext.Extract.Extraction.net_names map)
      lift.Lift.faults
  | Netlist.Device.R _ | Netlist.Device.L _ | Netlist.Device.D _ ->
    (* No layout template for these elements: keep their universe faults
       (opens/shorts with unknown probability). *)
    let counter = ref 0 in
    let mk kind mechanism =
      incr counter;
      Faults.Fault.make ~id:"" ~kind ~mechanism ()
    in
    Faults.Universe.device_faults mk dev
  | Netlist.Device.V _ | Netlist.Device.I _ -> []

let run ?(options = Lift.default_options) circuit =
  let per_device = ref [] in
  let all =
    List.concat_map
      (fun dev ->
        let faults = element_faults ~options dev in
        per_device := (Netlist.Device.name dev, List.length faults) :: !per_device;
        faults)
      (Netlist.Circuit.devices circuit)
  in
  let faults =
    List.mapi (fun i f -> { f with Faults.Fault.id = Printf.sprintf "L%d" (i + 1) }) all
  in
  { faults; per_device = List.rev !per_device }

let compare_with_glrfm ~l2rfm ~glrfm =
  let anticipated, global_only =
    List.partition (Faults.Fault.covers l2rfm.faults) glrfm
  in
  (`Anticipated anticipated, `Global_only global_only)
