type t = {
  node_index : (string, int) Hashtbl.t;
  branch_index : (string, int) Hashtbl.t;
  nodes : string array;
  branches : string array;
}

let make circuit =
  let node_index = Hashtbl.create 32 in
  let nodes =
    Netlist.Circuit.nodes circuit
    |> List.filter (fun n -> n <> Netlist.Device.ground)
  in
  List.iteri (fun i n -> Hashtbl.replace node_index n i) nodes;
  let n = List.length nodes in
  let branch_owners =
    List.filter_map
      (fun d ->
        match d with
        | Netlist.Device.V { name; _ } | Netlist.Device.L { name; _ } -> Some name
        | Netlist.Device.R _ | Netlist.Device.C _ | Netlist.Device.I _
        | Netlist.Device.D _ | Netlist.Device.M _ ->
          None)
      (Netlist.Circuit.devices circuit)
  in
  let branch_index = Hashtbl.create 8 in
  List.iteri (fun i nm -> Hashtbl.replace branch_index nm (n + i)) branch_owners;
  {
    node_index;
    branch_index;
    nodes = Array.of_list nodes;
    branches = Array.of_list branch_owners;
  }

let node_count t = Array.length t.nodes

let size t = Array.length t.nodes + Array.length t.branches

let node_id t name =
  if String.equal name Netlist.Device.ground then -1
  else Hashtbl.find t.node_index name

let branch_id t name = Hashtbl.find t.branch_index name

let node_names t = t.nodes

let branch_names t = t.branches

let unknown_name t i =
  let n = Array.length t.nodes in
  if i < 0 then Netlist.Device.ground
  else if i < n then t.nodes.(i)
  else if i - n < Array.length t.branches then "I(" ^ t.branches.(i - n) ^ ")"
  else Printf.sprintf "overlay[%d]" i
