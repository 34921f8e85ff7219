exception Parse_error of int * string

type tran = { tstep : float; tstop : float; uic : bool }

type deck = { circuit : Circuit.t; tran : tran option }

(* Logical lines: title first, then element/control cards with [+]
   continuations folded in and comments stripped. *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let strip line =
    let line =
      match String.index_opt line ';' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.trim line
  in
  let rec fold acc = function
    | [] -> List.rev acc
    | (ln, line) :: rest ->
      let line = strip line in
      if line = "" || line.[0] = '*' then fold acc rest
      else if line.[0] = '+' then begin
        match acc with
        | (ln0, prev) :: acc' ->
          fold ((ln0, prev ^ " " ^ String.sub line 1 (String.length line - 1)) :: acc') rest
        | [] -> raise (Parse_error (ln, "continuation with no previous card"))
      end
      else fold ((ln, line) :: acc) rest
  in
  match raw with
  | [] -> ("", [])
  | title :: rest ->
    (String.trim title, fold [] (List.mapi (fun i l -> (i + 2, l)) rest))

let tokens line =
  String.map
    (fun c ->
      match c with
      | '(' | ')' | '=' | ',' -> ' '
      | _ -> c)
    line
  |> String.split_on_char ' '
  |> List.filter (fun w -> w <> "")

let err ln fmt = Format.kasprintf (fun m -> raise (Parse_error (ln, m))) fmt

let num ln w =
  match Eng.parse w with
  | Some v -> v
  | None -> err ln "expected a number, got %S" w

let parse_wave ln = function
  | [] -> err ln "source needs a value"
  | [ v ] -> Wave.Dc (num ln v)
  | "DC" :: [ v ] | "dc" :: [ v ] -> Wave.Dc (num ln v)
  | kw :: args -> begin
    match String.uppercase_ascii kw with
    | "PULSE" -> begin
      let a = Array.of_list (List.map (num ln) args) in
      let get i d = if i < Array.length a then a.(i) else d in
      match Array.length a with
      | 0 | 1 -> err ln "PULSE needs at least v1 v2"
      | _ ->
        Wave.Pulse
          {
            v1 = get 0 0.0;
            v2 = get 1 0.0;
            delay = get 2 0.0;
            rise = get 3 1e-9;
            fall = get 4 1e-9;
            width = get 5 Float.max_float;
            period = get 6 0.0;
          }
    end
    | "PWL" ->
      let vals = List.map (num ln) args in
      let rec pair = function
        | [] -> []
        | t :: v :: rest -> (t, v) :: pair rest
        | [ _ ] -> err ln "PWL needs an even number of values"
      in
      Wave.Pwl (pair vals)
    | "SIN" -> begin
      let a = Array.of_list (List.map (num ln) args) in
      let get i d = if i < Array.length a then a.(i) else d in
      match Array.length a with
      | 0 | 1 | 2 -> err ln "SIN needs offset ampl freq"
      | _ ->
        Wave.Sin { offset = get 0 0.0; ampl = get 1 0.0; freq = get 2 0.0; delay = get 3 0.0 }
    end
    | _ -> err ln "unknown source waveform %S" kw
  end

(* Key-value option tails like [W 10u L 1u IC 0] (the '=' was tokenised
   away). *)
let rec kv ln = function
  | [] -> []
  | k :: v :: rest -> (String.uppercase_ascii k, num ln v) :: kv ln rest
  | [ k ] -> err ln "dangling parameter %S" k

type models = {
  mutable mos : (string * Device.mos_model) list;
  mutable dio : (string * Device.diode_model) list;
}

let parse_model ln models = function
  | name :: typ :: params -> begin
    let pairs = kv ln params in
    let get key d = match List.assoc_opt key pairs with Some v -> v | None -> d in
    match String.uppercase_ascii typ with
    | "NMOS" | "PMOS" ->
      let kind = if String.uppercase_ascii typ = "NMOS" then Device.Nmos else Device.Pmos in
      let vto_default = if kind = Device.Nmos then 0.8 else -0.8 in
      let m =
        {
          Device.mname = name;
          kind;
          vto = get "VTO" vto_default;
          kp = get "KP" 60e-6;
          lambda = get "LAMBDA" 0.0;
          cox = get "COX" Device.default_cox;
        }
      in
      models.mos <- (String.uppercase_ascii name, m) :: models.mos
    | "D" ->
      let m =
        {
          Device.dname = name;
          is_sat = get "IS" 1e-14;
          n_emission = get "N" 1.0;
        }
      in
      models.dio <- (String.uppercase_ascii name, m) :: models.dio
    | other -> err ln "unknown model type %S" other
  end
  | _ -> err ln ".model needs a name and a type"

let parse_element ln models toks =
  match toks with
  | [] -> assert false
  | name :: args -> begin
    let n2 nm = List.filteri (fun i _ -> i < nm) args in
    ignore n2;
    match (Char.uppercase_ascii name.[0], args) with
    | 'R', n1 :: n2 :: v :: _ -> Device.R { name; n1; n2; value = num ln v }
    | 'C', n1 :: n2 :: v :: rest ->
      let pairs = kv ln rest in
      Device.C { name; n1; n2; value = num ln v; ic = List.assoc_opt "IC" pairs }
    | 'L', n1 :: n2 :: v :: rest ->
      let pairs = kv ln rest in
      Device.L { name; n1; n2; value = num ln v; ic = List.assoc_opt "IC" pairs }
    | 'V', np :: nn :: rest -> Device.V { name; np; nn; wave = parse_wave ln rest }
    | 'I', np :: nn :: rest -> Device.I { name; np; nn; wave = parse_wave ln rest }
    | 'D', na :: nc :: rest ->
      let model =
        match rest with
        | m :: _ -> begin
          match List.assoc_opt (String.uppercase_ascii m) models.dio with
          | Some model -> model
          | None -> err ln "unknown diode model %S" m
        end
        | [] -> Device.default_diode
      in
      Device.D { name; na; nc; model }
    | 'M', d :: g :: s :: b :: m :: rest ->
      let model =
        match List.assoc_opt (String.uppercase_ascii m) models.mos with
        | Some model -> model
        | None -> err ln "unknown MOS model %S" m
      in
      let pairs = kv ln rest in
      let get key d = match List.assoc_opt key pairs with Some v -> v | None -> d in
      Device.M { name; d; g; s; b; model; w = get "W" 10e-6; l = get "L" 1e-6 }
    | c, _ -> err ln "cannot parse element %C card (too few fields?)" c
  end

(* Subcircuit definitions: collected verbatim, expanded (flattened) at
   each X-instance with hierarchical "inst.node" / "inst.dev" names. *)
type subckt = { ports : string list; body : (int * string) list }

let split_subckts lines =
  let defs : (string, subckt) Hashtbl.t = Hashtbl.create 4 in
  let rec go acc current = function
    | [] -> begin
      match current with
      | Some (ln, _, _, _) -> err ln ".subckt without .ends"
      | None -> List.rev acc
    end
    | ((ln, line) as entry) :: rest -> begin
      match (tokens line, current) with
      | ".subckt" :: name :: ports, None ->
        if ports = [] then err ln ".subckt %s needs at least one port" name;
        go acc (Some (ln, String.uppercase_ascii name, ports, [])) rest
      | ".subckt" :: _, Some _ -> err ln "nested .subckt definitions are not supported"
      | [ ".ends" ], Some (_, name, ports, body) ->
        Hashtbl.replace defs name { ports; body = List.rev body };
        go acc None rest
      | [ ".ends" ], None -> err ln ".ends without .subckt"
      | _, Some (l0, name, ports, body) -> go acc (Some (l0, name, ports, entry :: body)) rest
      | _, None -> go (entry :: acc) None rest
    end
  in
  let top = go [] None lines in
  (defs, top)

let max_subckt_depth = 20

(* Expand one card into flat devices.  [prefix] scopes names; [map_node]
   resolves a local node to its flat name. *)
let rec expand_card ~depth ~defs ~models ~prefix ~map_node (ln, line) =
  match tokens line with
  | [] -> []
  | card :: rest when Char.uppercase_ascii card.[0] = 'X' && card.[0] <> '.' -> begin
    if depth > max_subckt_depth then err ln "subcircuit nesting deeper than %d" max_subckt_depth;
    match List.rev rest with
    | sub :: rev_nodes -> begin
      let actuals = List.rev_map map_node rev_nodes in
      match Hashtbl.find_opt defs (String.uppercase_ascii sub) with
      | None -> err ln "unknown subcircuit %S" sub
      | Some { ports; body } ->
        if List.length ports <> List.length actuals then
          err ln "subcircuit %s expects %d ports, got %d" sub (List.length ports)
            (List.length actuals);
        let binding = List.combine ports actuals in
        let inner_prefix = prefix ^ card ^ "." in
        let inner_map n =
          if String.equal n "0" then "0"
          else
            match List.assoc_opt n binding with
            | Some actual -> actual
            | None -> inner_prefix ^ n
        in
        List.concat_map
          (expand_card ~depth:(depth + 1) ~defs ~models ~prefix:inner_prefix
             ~map_node:inner_map)
          body
    end
    | [] -> err ln "X card needs nodes and a subcircuit name"
  end
  | card :: _ when card.[0] = '.' ->
    err ln "control card %S not allowed inside a subcircuit" card
  | card :: rest ->
    let dev = parse_element ln models (card :: rest) in
    let dev = Device.rename map_node dev in
    [ Device.with_name (prefix ^ Device.name dev) dev ]

let parse text =
  let title, lines = logical_lines text in
  let models = { mos = []; dio = [] } in
  (* First pass: models, so elements can reference models declared later
     (model cards may live inside or outside .subckt blocks). *)
  List.iter
    (fun (ln, line) ->
      match tokens line with
      | card :: rest when String.lowercase_ascii card = ".model" ->
        parse_model ln models rest
      | _ -> ())
    lines;
  let defs, top = split_subckts lines in
  (* Model cards inside subckt bodies were already collected; strip them
     from the bodies so expansion only sees elements. *)
  Hashtbl.iter
    (fun name ({ body; _ } as sc) ->
      let body =
        List.filter
          (fun (_, line) ->
            match tokens line with
            | card :: _ -> String.lowercase_ascii card <> ".model"
            | [] -> false)
          body
      in
      Hashtbl.replace defs name { sc with body })
    defs;
  (* Devices newest first, and their names: one set lookup per device,
     one reversal at the end. *)
  let devices = ref [] and names = Hashtbl.create 64 in
  let tran = ref None in
  List.iter
    (fun (ln, line) ->
      match tokens line with
      | [] -> ()
      | card :: rest -> begin
        match String.lowercase_ascii card with
        | ".model" | ".end" | ".options" | ".option" | ".print" | ".plot" | ".probe" -> ()
        | ".tran" -> begin
          let uic =
            List.exists (fun w -> String.uppercase_ascii w = "UIC") rest
          in
          match List.filter (fun w -> String.uppercase_ascii w <> "UIC") rest with
          | tstep :: tstop :: _ ->
            let tstep = num ln tstep and tstop = num ln tstop in
            (* Eng.parse reads "1e999" as infinity: a transient to an
               infinite tstop would never finish. *)
            if not (0.0 < tstep && tstep <= tstop && Float.is_finite tstop) then
              err ln ".tran needs finite 0 < tstep <= tstop, got %g %g" tstep tstop;
            tran := Some { tstep; tstop; uic }
          | _ -> err ln ".tran needs tstep and tstop"
        end
        | c when String.length c > 0 && c.[0] = '.' -> err ln "unknown card %S" card
        | _ ->
          List.iter
            (fun dev ->
              let name = Device.name dev in
              if Hashtbl.mem names name then
                err ln "Circuit.add: duplicate device %s" name;
              Hashtbl.add names name ();
              devices := dev :: !devices)
            (expand_card ~depth:0 ~defs ~models ~prefix:"" ~map_node:Fun.id (ln, line))
      end)
    top;
  { circuit = { Circuit.title; devices = List.rev !devices }; tran = !tran }
