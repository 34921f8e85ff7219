module Failpoint = Failpoint

type value = Bool of bool | Int of int | Float of float | Str of string

type attrs = (string * value) list

type event =
  | Span of {
      name : string;
      domain : int;
      start : float;
      dur : float;
      parent : string option;
      attrs : attrs;
    }
  | Count of { name : string; domain : int; time : float; n : int; attrs : attrs }
  | Sample of { name : string; domain : int; time : float; v : float; attrs : attrs }

let event_name = function
  | Span { name; _ } | Count { name; _ } | Sample { name; _ } -> name

let event_time = function
  | Span { start; _ } -> start
  | Count { time; _ } | Sample { time; _ } -> time

let event_domain = function
  | Span { domain; _ } | Count { domain; _ } | Sample { domain; _ } -> domain

module Clock = struct
  let now = Unix.gettimeofday
end

(* --- Sinks ------------------------------------------------------------ *)

(* Emission is lock-free after a domain's first event: each domain owns
   one [dstate] (reached through domain-local storage), and the sink's
   mutex only guards the registry that [drain] walks.  The span stack
   lives in the same per-domain state, which is what makes nesting
   work without thread-local magic. *)
type dstate = {
  dom : int;
  mutable events : event list;  (* newest first *)
  mutable stack : string list;  (* enclosing span names, innermost first *)
}

type output = Memory | Jsonl_out of out_channel

type buffered = {
  out : output;
  mutex : Mutex.t;
  registry : dstate list ref;
  key : dstate Domain.DLS.key;
}

type sink =
  | Null
  | Buffered of buffered
  | Tee of sink list
  | Tagged of attrs * sink

let buffered out =
  let mutex = Mutex.create () in
  let registry = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let st = { dom = (Domain.self () :> int); events = []; stack = [] } in
        Mutex.protect mutex (fun () -> registry := st :: !registry);
        st)
  in
  Buffered { out; mutex; registry; key }

let null = Null

let memory () = buffered Memory

let jsonl oc = buffered (Jsonl_out oc)

let tee sinks = Tee sinks

let rec enabled = function
  | Null -> false
  | Buffered _ -> true
  | Tee sinks -> List.exists enabled sinks
  | Tagged (_, s) -> enabled s

let tagged sink attrs =
  if attrs = [] || not (enabled sink) then sink else Tagged (attrs, sink)

(* Scope attributes ride behind the event's own: an event that sets the
   same key explicitly wins on an assoc lookup. *)
let retag tag ev =
  if tag = [] then ev
  else
    match ev with
    | Span { name; domain; start; dur; parent; attrs } ->
      Span { name; domain; start; dur; parent; attrs = attrs @ tag }
    | Count { name; domain; time; n; attrs } ->
      Count { name; domain; time; n; attrs = attrs @ tag }
    | Sample { name; domain; time; v; attrs } ->
      Sample { name; domain; time; v; attrs = attrs @ tag }

let dstate b = Domain.DLS.get b.key

let rec push sink ev =
  match sink with
  | Null -> ()
  | Buffered b ->
    let st = dstate b in
    st.events <- ev :: st.events
  | Tee sinks -> List.iter (fun s -> push s ev) sinks
  | Tagged (tag, s) -> push s (retag tag ev)

let count sink ?(attrs = []) name n =
  if enabled sink then
    push sink
      (Count { name; domain = (Domain.self () :> int); time = Clock.now (); n; attrs })

let sample sink ?(attrs = []) name v =
  if enabled sink then
    push sink
      (Sample { name; domain = (Domain.self () :> int); time = Clock.now (); v; attrs })

type span_handle = No_span | Live of { mutable extra : attrs }

let set sp k v = match sp with No_span -> () | Live a -> a.extra <- (k, v) :: a.extra

(* The innermost Buffered sink keeps the span stack; a Tee nests the
   span on every component so each drains a self-consistent stream. *)
let span sink ?(attrs = []) name f =
  if not (enabled sink) then f No_span
  else begin
    let handle = Live { extra = [] } in
    let rec enter tag = function
      | Null -> []
      | Buffered b ->
        let st = dstate b in
        let parent = match st.stack with [] -> None | p :: _ -> Some p in
        st.stack <- name :: st.stack;
        [ (st, parent, tag) ]
      | Tee sinks -> List.concat_map (enter tag) sinks
      | Tagged (t, s) -> enter (tag @ t) s
    in
    let entered = enter [] sink in
    let t0 = Clock.now () in
    let finish error =
      let dur = Clock.now () -. t0 in
      let extra = match handle with Live a -> a.extra | No_span -> [] in
      let attrs =
        match error with
        | None -> extra @ attrs
        | Some msg -> ("error", Str msg) :: extra @ attrs
      in
      List.iter
        (fun (st, parent, tag) ->
          (match st.stack with _ :: tl -> st.stack <- tl | [] -> ());
          st.events <-
            Span
              { name; domain = st.dom; start = t0; dur; parent; attrs = attrs @ tag }
            :: st.events)
        entered
    in
    match f handle with
    | v ->
      finish None;
      v
    | exception e ->
      finish (Some (Printexc.to_string e));
      raise e
  end

(* --- Aggregation ------------------------------------------------------ *)

module Summary = struct
  type stat = { count : int; total : float; min : float; max : float; mean : float }

  type t = {
    spans : (string * stat) list;
    counters : (string * int) list;
    samples : (string * stat) list;
  }

  let add tbl name v =
    let count, total, mn, mx =
      match Hashtbl.find_opt tbl name with
      | Some s -> s
      | None -> (0, 0.0, infinity, neg_infinity)
    in
    Hashtbl.replace tbl name
      (count + 1, total +. v, Float.min mn v, Float.max mx v)

  let stats tbl =
    Hashtbl.fold
      (fun name (count, total, min, max) acc ->
        (name, { count; total; min; max; mean = total /. float_of_int count }) :: acc)
      tbl []
    |> List.sort compare

  let of_events events =
    let spans = Hashtbl.create 16
    and counters = Hashtbl.create 16
    and samples = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        match ev with
        | Span { name; dur; _ } -> add spans name dur
        | Count { name; n; _ } ->
          Hashtbl.replace counters name
            (n + Option.value ~default:0 (Hashtbl.find_opt counters name))
        | Sample { name; v; _ } -> add samples name v)
      events;
    {
      spans = stats spans;
      counters = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []);
      samples = stats samples;
    }

  let pp_stat_block ppf title unit rows =
    if rows <> [] then begin
      Format.fprintf ppf "@,%s@," title;
      Format.fprintf ppf "  %-36s %8s %12s %12s %12s %12s@," "name" "count"
        ("total" ^ unit) ("mean" ^ unit) ("min" ^ unit) ("max" ^ unit);
      List.iter
        (fun (name, s) ->
          Format.fprintf ppf "  %-36s %8d %12.4g %12.4g %12.4g %12.4g@," name
            s.count s.total s.mean s.min s.max)
        rows
    end

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    pp_stat_block ppf "spans" " [s]" t.spans;
    if t.counters <> [] then begin
      Format.fprintf ppf "@,counters@,";
      List.iter
        (fun (name, n) -> Format.fprintf ppf "  %-36s %8d@," name n)
        t.counters
    end;
    pp_stat_block ppf "samples" "" t.samples;
    Format.fprintf ppf "@]"
end

(* --- JSON ------------------------------------------------------------- *)

let ( let* ) = Result.bind

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* Floats always carry '.', 'e' or a non-numeric token so the reader
     can tell them from ints; %.17g round-trips every double. *)
  let float_token f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_token f)
    | String s -> escape buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf

  exception Parse_error of string

  (* The parser recurses once per nesting level, so an unbounded depth
     would let one hostile line exhaust the stack.  Nothing this
     repository writes nests beyond a handful of levels. *)
  let max_depth = 10_000

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("bad literal, expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "short \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
            if not (String.for_all is_hex hex) then
              fail (Printf.sprintf "bad \\u escape %S" hex);
            let code = int_of_string ("0x" ^ hex) in
            pos := !pos + 4;
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let numchar c =
        match c with
        | '0' .. '9' | '-' | '+' -> true
        | '.' | 'e' | 'E' ->
          is_float := true;
          true
        | 'n' | 'a' | 'i' | 'f' ->
          (* nan / inf tokens our own writer may produce *)
          is_float := true;
          true
        | _ -> false
      in
      while !pos < n && numchar s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail ("bad number " ^ tok)
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail ("bad number " ^ tok))
    in
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some ('{' | '[') when depth >= max_depth -> fail "nesting too deep"
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              fields ((k, v) :: acc)
            | Some '}' ->
              incr pos;
              List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (fields [])
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              items (v :: acc)
            | Some ']' ->
              incr pos;
              List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (items [])
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' ->
        (* "null" or "nan" (writer output for NaN samples) *)
        if !pos + 3 <= n && String.sub s !pos 3 = "nan" then begin
          pos := !pos + 3;
          Float Float.nan
        end
        else literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  (* --- Field decoding: the one vocabulary every record decoder uses. *)

  let obj_fields = function
    | Obj fields -> Ok fields
    | _ -> Error "want a JSON object"

  let decode_field name decode v =
    match decode v with
    | Ok _ as ok -> ok
    | Error msg -> Error (name ^ ": " ^ msg)

  let get fields name ~default decode =
    match List.assoc_opt name fields with
    | None | Some Null -> Ok default
    | Some v -> decode_field name decode v

  let require fields name decode =
    match List.assoc_opt name fields with
    | None -> Error ("missing field " ^ name)
    | Some v -> decode_field name decode v

  let as_str = function String s -> Ok s | _ -> Error "want a string"

  let as_int = function Int i -> Ok i | _ -> Error "want an integer"

  let as_float = function
    | Float f -> Ok f
    | Int i -> Ok (float_of_int i)
    | _ -> Error "want a number"

  let as_bool = function Bool b -> Ok b | _ -> Error "want a boolean"

  let as_list = function List l -> Ok l | _ -> Error "want a list"

  let list_of decode v =
    let* l = as_list v in
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* x = decode j in
        Ok (x :: acc))
      (Ok []) l
    |> Result.map List.rev

  let as_opt decode = function
    | Null -> Ok None
    | v -> Result.map Option.some (decode v)
end

let value_to_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s

let value_of_json = function
  | Json.Bool b -> Ok (Bool b)
  | Json.Int i -> Ok (Int i)
  | Json.Float f -> Ok (Float f)
  | Json.String s -> Ok (Str s)
  | Json.Null | Json.List _ | Json.Obj _ -> Error "attribute must be scalar"

let attrs_to_json attrs = Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) attrs)

let event_to_json = function
  | Span { name; domain; start; dur; parent; attrs } ->
    Json.Obj
      ([
         ("ev", Json.String "span");
         ("name", Json.String name);
         ("domain", Json.Int domain);
         ("start", Json.Float start);
         ("dur", Json.Float dur);
       ]
      @ (match parent with None -> [] | Some p -> [ ("parent", Json.String p) ])
      @ [ ("attrs", attrs_to_json attrs) ])
  | Count { name; domain; time; n; attrs } ->
    Json.Obj
      [
        ("ev", Json.String "count");
        ("name", Json.String name);
        ("domain", Json.Int domain);
        ("time", Json.Float time);
        ("n", Json.Int n);
        ("attrs", attrs_to_json attrs);
      ]
  | Sample { name; domain; time; v; attrs } ->
    Json.Obj
      [
        ("ev", Json.String "sample");
        ("name", Json.String name);
        ("domain", Json.Int domain);
        ("time", Json.Float time);
        ("v", Json.Float v);
        ("attrs", attrs_to_json attrs);
      ]

let event_of_json json =
  let open Json in
  let* fields = obj_fields json in
  let attrs v =
    let* kvs = obj_fields v in
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        let* v = value_of_json v in
        Ok ((k, v) :: acc))
      (Ok []) kvs
    |> Result.map List.rev
  in
  let* kind = require fields "ev" as_str in
  let* name = require fields "name" as_str in
  let* domain = require fields "domain" as_int in
  let* attrs = get fields "attrs" ~default:[] attrs in
  match kind with
  | "span" ->
    let* start = require fields "start" as_float in
    let* dur = require fields "dur" as_float in
    let* parent = get fields "parent" ~default:None (as_opt as_str) in
    Ok (Span { name; domain; start; dur; parent; attrs })
  | "count" ->
    let* time = require fields "time" as_float in
    let* n = require fields "n" as_int in
    Ok (Count { name; domain; time; n; attrs })
  | "sample" ->
    let* time = require fields "time" as_float in
    let* v = require fields "v" as_float in
    Ok (Sample { name; domain; time; v; attrs })
  | other -> Error ("unknown event kind " ^ other)

module Jsonl = struct
  let write oc events =
    List.iter
      (fun ev ->
        output_string oc (Json.to_string (event_to_json ev));
        output_char oc '\n')
      events;
    flush oc

  let parse_string s =
    let lines = String.split_on_char '\n' s in
    let rec go lineno acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else begin
          match
            let* json = Json.of_string line in
            event_of_json json
          with
          | Ok ev -> go (lineno + 1) (ev :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        end
    in
    go 1 [] lines

  let read_file path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    parse_string s
end

(* --- Drain ------------------------------------------------------------ *)

let rec drain sink =
  match sink with
  | Null -> []
  | Buffered b ->
    let events =
      Mutex.protect b.mutex (fun () ->
          let evs =
            List.concat_map
              (fun st ->
                let e = st.events in
                st.events <- [];
                e)
              !(b.registry)
          in
          List.stable_sort (fun a b -> Float.compare (event_time a) (event_time b)) evs)
    in
    (match b.out with
    | Memory -> ()
    | Jsonl_out oc -> Jsonl.write oc events);
    events
  | Tee sinks ->
    let drained = List.map (fun s -> (s, drain s)) sinks in
    (match List.find_opt (fun (s, _) -> enabled s) drained with
    | Some (_, evs) -> evs
    | None -> [])
  | Tagged (_, s) -> drain s
