(* The first of [base], [base1], [base2], ... not in [used]. *)
let fresh_in used base =
  let rec go i =
    let cand = Printf.sprintf "%s%d" base i in
    if List.mem cand used then go (i + 1) else cand
  in
  if List.mem base used then go 1 else base

let fresh_name circuit = fresh_in (List.map Netlist.Device.name (Netlist.Circuit.devices circuit))

let fresh_node circuit = fresh_in (Netlist.Circuit.nodes circuit)

let apply_bridge ~model circuit ~net_a ~net_b =
  if String.equal net_a net_b then circuit
  else begin
    match model with
    | Faults.Inject.Resistor { r_short; _ } ->
      Netlist.Circuit.add circuit
        (Netlist.Device.R
           { name = fresh_name circuit "F_BRI";
             n1 = net_a; n2 = net_b; value = r_short })
    | Faults.Inject.Source ->
      Netlist.Circuit.add circuit
        (Netlist.Device.V
           { name = fresh_name circuit "VF_BRI";
             np = net_a; nn = net_b; wave = Netlist.Wave.Dc 0.0 })
  end

let apply_break ~model circuit fault ~net ~moved =
  let fresh =
    fresh_node circuit (Faults.Inject.break_node_name fault)
  in
  let circuit =
    List.fold_left
      (fun c ({ Faults.Fault.device; port } : Faults.Fault.terminal) ->
        match Netlist.Circuit.find c device with
        | None -> raise Not_found
        | Some dev ->
          (match List.nth_opt (Netlist.Device.nodes dev) port with
          | Some n when String.equal n net -> ()
          | Some _ | None -> raise Not_found);
          Netlist.Circuit.replace c (Netlist.Device.rename_port port fresh dev))
      circuit moved
  in
  match model with
  | Faults.Inject.Resistor { r_open; _ } ->
    Netlist.Circuit.add circuit
      (Netlist.Device.R
         { name = fresh_name circuit "F_OPEN";
           n1 = net; n2 = fresh; value = r_open })
  | Faults.Inject.Source ->
    Netlist.Circuit.add circuit
      (Netlist.Device.I
         { name = fresh_name circuit "IF_OPEN";
           np = net; nn = fresh; wave = Netlist.Wave.Dc 0.0 })

let apply_stuck_open circuit ~device =
  match Netlist.Circuit.find circuit device with
  | Some (Netlist.Device.M m) ->
    let dead =
      { m.model with Netlist.Device.mname = m.model.Netlist.Device.mname ^ "_SOPEN";
        kp = 0.0 }
    in
    Netlist.Circuit.replace circuit (Netlist.Device.M { m with model = dead })
  | Some _ | None -> raise Not_found

let apply ~model circuit (fault : Faults.Fault.t) =
  match fault.kind with
  | Faults.Fault.Bridge { net_a; net_b } -> apply_bridge ~model circuit ~net_a ~net_b
  | Faults.Fault.Break { net; moved } -> apply_break ~model circuit fault ~net ~moved
  | Faults.Fault.Stuck_open { device } -> apply_stuck_open circuit ~device
