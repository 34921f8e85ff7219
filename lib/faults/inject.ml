type model =
  | Resistor of { r_short : float; r_open : float }
  | Source

let default_resistor = Resistor { r_short = 0.01; r_open = 100e6 }

let break_node_name (f : Fault.t) =
  let clean =
    String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_')
      f.Fault.id
  in
  "brk" ^ clean

let bridge ~model index ~net_a ~net_b =
  if String.equal net_a net_b then Netlist.Circuit.unchanged
  else
    let dev =
      match model with
      | Resistor { r_short; _ } ->
        Netlist.Device.R
          { name = Netlist.Circuit.fresh_name index "F_BRI";
            n1 = net_a; n2 = net_b; value = r_short }
      | Source ->
        Netlist.Device.V
          { name = Netlist.Circuit.fresh_name index "VF_BRI";
            np = net_a; nn = net_b; wave = Netlist.Wave.Dc 0.0 }
    in
    { Netlist.Circuit.replaced = []; added = [ dev ] }

(* Each moved terminal goes to the fresh node; a device with several
   moved terminals is rewritten once per terminal, each time from its
   previous rewrite. *)
let break ~model index fault ~net ~moved =
  let fresh = Netlist.Circuit.fresh_node index (break_node_name fault) in
  let replaced =
    List.fold_left
      (fun acc ({ Fault.device; port } : Fault.terminal) ->
        let pos, dev =
          match Netlist.Circuit.lookup index device with
          | None -> raise Not_found
          | Some (pos, dev) -> (pos, Option.value ~default:dev (List.assoc_opt pos acc))
        in
        (match List.nth_opt (Netlist.Device.nodes dev) port with
        | Some n when String.equal n net -> ()
        | Some _ | None -> raise Not_found);
        (pos, Netlist.Device.rename_port port fresh dev) :: List.remove_assoc pos acc)
      [] moved
  in
  let dev =
    match model with
    | Resistor { r_open; _ } ->
      Netlist.Device.R
        { name = Netlist.Circuit.fresh_name index "F_OPEN";
          n1 = net; n2 = fresh; value = r_open }
    | Source ->
      Netlist.Device.I
        { name = Netlist.Circuit.fresh_name index "IF_OPEN";
          np = net; nn = fresh; wave = Netlist.Wave.Dc 0.0 }
  in
  { Netlist.Circuit.replaced = List.sort (fun (a, _) (b, _) -> Int.compare a b) replaced;
    added = [ dev ] }

let stuck_open index ~device =
  match Netlist.Circuit.lookup index device with
  | Some (pos, Netlist.Device.M m) ->
    let dead =
      { m.model with Netlist.Device.mname = m.model.Netlist.Device.mname ^ "_SOPEN";
        kp = 0.0 }
    in
    { Netlist.Circuit.replaced = [ (pos, Netlist.Device.M { m with model = dead }) ];
      added = [] }
  | Some (_, (Netlist.Device.R _ | Netlist.Device.C _ | Netlist.Device.L _
             | Netlist.Device.V _ | Netlist.Device.I _ | Netlist.Device.D _))
  | None ->
    raise Not_found

let delta ~model index (fault : Fault.t) =
  match fault.kind with
  | Fault.Bridge { net_a; net_b } -> bridge ~model index ~net_a ~net_b
  | Fault.Break { net; moved } -> break ~model index fault ~net ~moved
  | Fault.Stuck_open { device } -> stuck_open index ~device

let apply ~model circuit fault =
  Netlist.Circuit.materialise circuit (delta ~model (Netlist.Circuit.index circuit) fault)
