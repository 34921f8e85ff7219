let two_terminal_faults mk name n1 n2 =
  mk (Fault.Break { net = n1; moved = [ { Fault.device = name; port = 0 } ] })
    (name ^ "_open")
  :: (if String.equal n1 n2 then []
      else [ mk (Fault.Bridge { net_a = n1; net_b = n2 }) (name ^ "_short") ])

let device_faults mk = function
  | Netlist.Device.M { name; d; g; s; _ } ->
    let opens =
      List.map
        (fun (port, net, tag) ->
          mk (Fault.Break { net; moved = [ { Fault.device = name; port } ] })
            (name ^ "_" ^ tag ^ "_open"))
        [ (0, d, "d"); (1, g, "g"); (2, s, "s") ]
    in
    let shorts =
      List.filter_map
        (fun (na, nb, tag) ->
          if String.equal na nb then None
          else Some (mk (Fault.Bridge { net_a = na; net_b = nb }) (name ^ "_" ^ tag ^ "_short")))
        [ (g, d, "gd"); (g, s, "gs"); (d, s, "ds") ]
    in
    opens @ shorts
  | Netlist.Device.R { name; n1; n2; _ } -> two_terminal_faults mk name n1 n2
  | Netlist.Device.C { name; n1; n2; _ } -> two_terminal_faults mk name n1 n2
  | Netlist.Device.L { name; n1; n2; _ } -> two_terminal_faults mk name n1 n2
  | Netlist.Device.D { name; na; nc; _ } -> two_terminal_faults mk name na nc
  | Netlist.Device.V _ | Netlist.Device.I _ -> []

let build circuit =
  let counter = ref 0 in
  let mk kind mechanism =
    incr counter;
    Fault.make ~id:(Printf.sprintf "U%d" !counter) ~kind ~mechanism ()
  in
  List.concat_map (device_faults mk) (Netlist.Circuit.devices circuit)

let count faults =
  List.fold_left
    (fun (opens, shorts) (f : Fault.t) ->
      match f.kind with
      | Fault.Break _ | Fault.Stuck_open _ -> (opens + 1, shorts)
      | Fault.Bridge _ -> (opens, shorts + 1))
    (0, 0) faults

let collapse faults =
  List.map
    (fun ((f : Fault.t), same) ->
      let merged =
        List.fold_left
          (fun (a : Fault.t) (b : Fault.t) -> { a with prob = a.prob +. b.prob })
          f same
      in
      (merged, 1 + List.length same))
    (Fault.classes (fun (f : Fault.t) -> f.kind) faults)
