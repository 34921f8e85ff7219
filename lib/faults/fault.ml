type terminal = { device : string; port : int }

type kind =
  | Bridge of { net_a : string; net_b : string }
  | Break of { net : string; moved : terminal list }
  | Stuck_open of { device : string }

type t = {
  id : string;
  kind : kind;
  mechanism : string;
  prob : float;
  note : string;
}

let make ~id ~kind ~mechanism ?(prob = 0.0) ?(note = "") () =
  { id; kind; mechanism; prob; note }

let is_local circuit t =
  match t.kind with
  | Stuck_open _ -> true
  | Break { moved; _ } -> List.length moved <= 1
  | Bridge { net_a; net_b } ->
    List.exists
      (fun d ->
        let nodes = Netlist.Device.nodes d in
        List.exists (String.equal net_a) nodes && List.exists (String.equal net_b) nodes)
      (Netlist.Circuit.devices circuit)

let canonical = function
  | Bridge { net_a; net_b } ->
    let a, b = if String.compare net_a net_b <= 0 then (net_a, net_b) else (net_b, net_a) in
    Bridge { net_a = a; net_b = b }
  | Break { net; moved } -> Break { net; moved = List.sort compare moved }
  | Stuck_open _ as k -> k

let equivalent a b = canonical a.kind = canonical b.kind

(* Canonical kinds as hash keys.  The wide traversal limits reach deep
   into long moved-terminal lists, so breaks on one net do not all share
   a bucket; equality stays structural, so a collision costs time only. *)
module Kind_tbl = Hashtbl.Make (struct
  type t = kind

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

let classes kind_of xs =
  let tbl = Kind_tbl.create 64 in
  let order =
    List.fold_left
      (fun order x ->
        let k = canonical (kind_of x) in
        match Kind_tbl.find_opt tbl k with
        | Some dups ->
          dups := x :: !dups;
          order
        | None ->
          let dups = ref [] in
          Kind_tbl.add tbl k dups;
          (x, dups) :: order)
      [] xs
  in
  List.rev_map (fun (x, dups) -> (x, List.rev !dups)) order

let covers faults =
  let tbl = Kind_tbl.create 64 in
  List.iter (fun f -> Kind_tbl.replace tbl (canonical f.kind) ()) faults;
  fun f -> Kind_tbl.mem tbl (canonical f.kind)

let pp_terminal ppf t = Format.fprintf ppf "%s.%d" t.device t.port

let pp ppf t =
  let pp_kind ppf = function
    | Bridge { net_a; net_b } -> Format.fprintf ppf "BRI %s<->%s" net_a net_b
    | Break { net; moved } ->
      Format.fprintf ppf "OPEN %s /" net;
      List.iter (fun m -> Format.fprintf ppf " %a" pp_terminal m) moved
    | Stuck_open { device } -> Format.fprintf ppf "SOPEN %s" device
  in
  Format.fprintf ppf "%s %s %a" t.id t.mechanism pp_kind t.kind;
  if t.prob > 0.0 then Format.fprintf ppf " p=%.3g" t.prob;
  if t.note <> "" then Format.fprintf ppf " (%s)" t.note

let to_string t = Format.asprintf "%a" pp t
