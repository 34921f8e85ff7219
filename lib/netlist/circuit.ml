type t = { title : string; devices : Device.t list }

let empty title = { title; devices = [] }

let find t name = List.find_opt (fun d -> Device.name d = name) t.devices

let duplicate name = invalid_arg ("Circuit.add: duplicate device " ^ name)

let add t dev =
  let n = Device.name dev in
  if find t n <> None then duplicate n else { t with devices = t.devices @ [ dev ] }

let of_devices title devices =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun d ->
      let n = Device.name d in
      if Hashtbl.mem seen n then duplicate n;
      Hashtbl.add seen n ())
    devices;
  { title; devices }

let devices t = t.devices

let device_count t = List.length t.devices

let nodes t =
  List.concat_map Device.nodes t.devices |> List.sort_uniq String.compare

let remove t name =
  { t with devices = List.filter (fun d -> Device.name d <> name) t.devices }

let replace t dev =
  let n = Device.name dev in
  if find t n = None then raise Not_found
  else
    { t with
      devices = List.map (fun d -> if Device.name d = n then dev else d) t.devices }

let rename_node t ~from_ ~to_ =
  let f n = if String.equal n from_ then to_ else n in
  { t with devices = List.map (Device.rename f) t.devices }

let devices_on t node =
  List.filter (fun d -> List.exists (String.equal node) (Device.nodes d)) t.devices

(* --- Deltas ------------------------------------------------------------ *)

type delta = { replaced : (int * Device.t) list; added : Device.t list }

let unchanged = { replaced = []; added = [] }

let materialise t { replaced; added } =
  let devices = Array.of_list t.devices in
  List.iter (fun (p, dev) -> devices.(p) <- dev) replaced;
  { t with devices = Array.to_list devices @ added }

type index = {
  positions : (string, int * Device.t) Hashtbl.t;
  node_set : (string, unit) Hashtbl.t;
}

let index t =
  let positions = Hashtbl.create 64 and node_set = Hashtbl.create 64 in
  List.iteri
    (fun p d ->
      let name = Device.name d in
      if not (Hashtbl.mem positions name) then Hashtbl.add positions name (p, d);
      List.iter (fun n -> Hashtbl.replace node_set n ()) (Device.nodes d))
    t.devices;
  { positions; node_set }

let lookup ix name = Hashtbl.find_opt ix.positions name

(* The first of [base], [base1], [base2], ... that [used] does not hold. *)
let fresh_in used base =
  let rec go i =
    let cand = Printf.sprintf "%s%d" base i in
    if used cand then go (i + 1) else cand
  in
  if used base then go 1 else base

let fresh_node ix base = fresh_in (Hashtbl.mem ix.node_set) base

let fresh_name ix base = fresh_in (Hashtbl.mem ix.positions) base

let mos_models t =
  List.filter_map
    (function
      | Device.M { model; _ } -> Some model
      | Device.R _ | Device.C _ | Device.L _ | Device.V _ | Device.I _ | Device.D _ ->
        None)
    t.devices
  |> List.sort_uniq (fun (a : Device.mos_model) b -> String.compare a.mname b.mname)

let diode_models t =
  List.filter_map
    (function
      | Device.D { model; _ } -> Some model
      | Device.R _ | Device.C _ | Device.L _ | Device.V _ | Device.I _ | Device.M _ ->
        None)
    t.devices
  |> List.sort_uniq (fun (a : Device.diode_model) b -> String.compare a.dname b.dname)

let pp ppf t =
  Format.fprintf ppf "@[<v>* %s@," t.title;
  List.iter (fun d -> Format.fprintf ppf "%a@," Device.pp d) t.devices;
  Format.fprintf ppf "@]"
