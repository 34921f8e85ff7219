(* Newline-delimited JSON framing for the campaign service.  The
   payload vocabulary (specs, events, results) lives in
   Anafault.Campaign; this module only names the request envelope and
   moves lines. *)

module J = Obs.Json

let ( let* ) = Result.bind

type lift_spec = {
  layout : string;
  p_min : float;
  uniform_pdf : bool;
  merge_equivalent : bool;
  tile_nm : int;
}

let lift_spec_to_json s =
  J.Obj
    [
      ("layout", J.String s.layout);
      ("p_min", J.Float s.p_min);
      ("uniform_pdf", J.Bool s.uniform_pdf);
      ("merge_equivalent", J.Bool s.merge_equivalent);
      ("tile_nm", J.Int s.tile_nm);
    ]

let lift_spec_of_json json =
  let* fields =
    match json with
    | J.Obj f -> Ok f
    | _ -> Error "lift spec: want a JSON object"
  in
  let* layout =
    match List.assoc_opt "layout" fields with
    | Some (J.String s) -> Ok s
    | Some _ | None -> Error "lift spec: want a layout string"
  in
  let float_field name default =
    match List.assoc_opt name fields with
    | None -> Ok default
    | Some (J.Float f) -> Ok f
    | Some (J.Int i) -> Ok (float_of_int i)
    | Some _ -> Error (Printf.sprintf "lift spec: %s must be a number" name)
  in
  let bool_field name default =
    match List.assoc_opt name fields with
    | None -> Ok default
    | Some (J.Bool b) -> Ok b
    | Some _ -> Error (Printf.sprintf "lift spec: %s must be a boolean" name)
  in
  let* p_min = float_field "p_min" 0.0 in
  let* uniform_pdf = bool_field "uniform_pdf" false in
  let* merge_equivalent = bool_field "merge_equivalent" true in
  let* tile_nm =
    match List.assoc_opt "tile_nm" fields with
    | None -> Ok 0
    | Some (J.Int i) when i >= 0 -> Ok i
    | Some _ -> Error "lift spec: tile_nm must be a non-negative integer"
  in
  Ok { layout; p_min; uniform_pdf; merge_equivalent; tile_nm }

(* The content address of an extraction.  tile_nm is deliberately NOT
   part of the digest: tiling changes how the answer is computed, never
   what it is (the pipeline is byte-identical to the serial path), so a
   client retiling the same layout still hits the cache. *)
let lift_fingerprint s =
  let canonical =
    Printf.sprintf "lift|%h|%b|%b|%s" s.p_min s.uniform_pdf s.merge_equivalent
      s.layout
  in
  "lift-" ^ Digest.to_hex (Digest.string canonical)

type request =
  | Submit of {
      spec : Anafault.Campaign.spec;
      client : string option;
      deadline_s : float option;
          (* wall-clock budget for the whole job, measured from
             acceptance; the server may cap it with --job-deadline *)
    }
  | Extract of {
      lift : lift_spec;
      simulate : Anafault.Campaign.spec option;
      client : string option;
      deadline_s : float option;
    }
  | Cancel of { fingerprint : string }
  | Stats
  | Ping
  | Shutdown

let request_to_json = function
  | Submit { spec; client; deadline_s } ->
    J.Obj
      (("cmd", J.String "submit")
       :: ("spec", Anafault.Campaign.spec_to_json spec)
       ::
       ((match client with
        | None -> []
        | Some c -> [ ("client", J.String c) ])
       @
       match deadline_s with
       | None -> []
       | Some d -> [ ("deadline_s", J.Float d) ]))
  | Extract { lift; simulate; client; deadline_s } ->
    J.Obj
      (("cmd", J.String "extract")
       :: ("lift", lift_spec_to_json lift)
       ::
       ((match simulate with
        | None -> []
        | Some spec -> [ ("simulate", Anafault.Campaign.spec_to_json spec) ])
       @ (match client with
         | None -> []
         | Some c -> [ ("client", J.String c) ])
       @
       match deadline_s with
       | None -> []
       | Some d -> [ ("deadline_s", J.Float d) ]))
  | Cancel { fingerprint } ->
    J.Obj [ ("cmd", J.String "cancel"); ("fingerprint", J.String fingerprint) ]
  | Stats -> J.Obj [ ("cmd", J.String "stats") ]
  | Ping -> J.Obj [ ("cmd", J.String "ping") ]
  | Shutdown -> J.Obj [ ("cmd", J.String "shutdown") ]

let request_of_json json =
  let* fields =
    match json with J.Obj f -> Ok f | _ -> Error "request: want a JSON object"
  in
  let* cmd =
    match List.assoc_opt "cmd" fields with
    | Some (J.String s) -> Ok s
    | Some _ | None -> Error "request: want a cmd string"
  in
  let client_of cmd =
    match List.assoc_opt "client" fields with
    | None -> Ok None
    | Some (J.String c) -> Ok (Some c)
    | Some _ -> Error (cmd ^ ": client must be a string")
  in
  let deadline_of cmd =
    match List.assoc_opt "deadline_s" fields with
    | None -> Ok None
    | Some (J.Float d) when d > 0.0 -> Ok (Some d)
    | Some (J.Int d) when d > 0 -> Ok (Some (float_of_int d))
    | Some _ -> Error (cmd ^ ": deadline_s must be a positive number")
  in
  match cmd with
  | "submit" -> begin
    match List.assoc_opt "spec" fields with
    | None -> Error "submit: missing spec"
    | Some spec_json ->
      let* spec = Anafault.Campaign.spec_of_json spec_json in
      let* client = client_of "submit" in
      let* deadline_s = deadline_of "submit" in
      Ok (Submit { spec; client; deadline_s })
  end
  | "extract" -> begin
    match List.assoc_opt "lift" fields with
    | None -> Error "extract: missing lift spec"
    | Some lift_json ->
      let* lift = lift_spec_of_json lift_json in
      let* simulate =
        match List.assoc_opt "simulate" fields with
        | None -> Ok None
        | Some spec_json ->
          let* spec = Anafault.Campaign.spec_of_json spec_json in
          Ok (Some spec)
      in
      let* client = client_of "extract" in
      let* deadline_s = deadline_of "extract" in
      Ok (Extract { lift; simulate; client; deadline_s })
  end
  | "cancel" -> begin
    match List.assoc_opt "fingerprint" fields with
    | Some (J.String fingerprint) -> Ok (Cancel { fingerprint })
    | Some _ | None -> Error "cancel: want a fingerprint string"
  end
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | "shutdown" -> Ok Shutdown
  | other -> Error ("unknown command " ^ other)

(* --- Backpressure ------------------------------------------------------ *)

type reject_reason = Queue_full | Quota_exceeded

let reject_reason_to_string = function
  | Queue_full -> "queue_full"
  | Quota_exceeded -> "quota_exceeded"

let reject_reason_of_string = function
  | "queue_full" -> Ok Queue_full
  | "quota_exceeded" -> Ok Quota_exceeded
  | other -> Error ("unknown reject reason " ^ other)

let rejected_to_json ~reason ~message =
  J.Obj
    [
      ("event", J.String "rejected");
      ("reason", J.String (reject_reason_to_string reason));
      ("message", J.String message);
    ]

(* [Ok None] when the object is not a rejection at all (so callers can
   fall through to the event codec). *)
let rejected_of_json json =
  match json with
  | J.Obj fields -> begin
    match List.assoc_opt "event" fields with
    | Some (J.String "rejected") ->
      let* reason =
        match List.assoc_opt "reason" fields with
        | Some (J.String s) -> reject_reason_of_string s
        | Some _ | None -> Error "rejected: want a reason string"
      in
      let message =
        match List.assoc_opt "message" fields with
        | Some (J.String m) -> m
        | _ -> ""
      in
      Ok (Some (reason, message))
    | _ -> Ok None
  end
  | _ -> Ok None

let ok = J.Obj [ ("ok", J.Bool true) ]

(* --- Extraction answers ------------------------------------------------ *)

type extracted = {
  ex_fingerprint : string;
  ex_cached : bool;
  ex_faults : string;
  ex_sites : int;
  ex_bridging : int;
  ex_line_opens : int;
  ex_contact_opens : int;
  ex_stuck_opens : int;
}

let extracted_to_json e =
  J.Obj
    [
      ("event", J.String "extracted");
      ("fingerprint", J.String e.ex_fingerprint);
      ("cached", J.Bool e.ex_cached);
      ("faults", J.String e.ex_faults);
      ("sites_considered", J.Int e.ex_sites);
      ("bridging", J.Int e.ex_bridging);
      ("line_opens", J.Int e.ex_line_opens);
      ("contact_opens", J.Int e.ex_contact_opens);
      ("stuck_opens", J.Int e.ex_stuck_opens);
    ]

let extracted_of_json json =
  match json with
  | J.Obj fields -> begin
    match List.assoc_opt "event" fields with
    | Some (J.String "extracted") ->
      let str name =
        match List.assoc_opt name fields with
        | Some (J.String s) -> Ok s
        | Some _ | None ->
          Error (Printf.sprintf "extracted: want a %s string" name)
      in
      let int name =
        match List.assoc_opt name fields with
        | Some (J.Int i) -> Ok i
        | Some _ | None ->
          Error (Printf.sprintf "extracted: want a %s integer" name)
      in
      let* ex_fingerprint = str "fingerprint" in
      let* ex_faults = str "faults" in
      let ex_cached =
        match List.assoc_opt "cached" fields with
        | Some (J.Bool b) -> b
        | _ -> false
      in
      let* ex_sites = int "sites_considered" in
      let* ex_bridging = int "bridging" in
      let* ex_line_opens = int "line_opens" in
      let* ex_contact_opens = int "contact_opens" in
      let* ex_stuck_opens = int "stuck_opens" in
      Ok
        (Some
           {
             ex_fingerprint;
             ex_cached;
             ex_faults;
             ex_sites;
             ex_bridging;
             ex_line_opens;
             ex_contact_opens;
             ex_stuck_opens;
           })
    | _ -> Ok None
  end
  | _ -> Ok None

let send oc json =
  output_string oc (J.to_string json);
  output_char oc '\n';
  flush oc

(* Read one line of at most [limit_bytes], without trusting
   [input_line] to bound anything: a hostile or broken client must not
   be able to balloon the daemon's memory before the parser even sees
   the bytes. *)
let bounded_line ic limit =
  let buf = Buffer.create 256 in
  let rec loop () =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 then Ok None else Ok (Some (Buffer.contents buf))
    | '\n' -> Ok (Some (Buffer.contents buf))
    | c ->
      if Buffer.length buf >= limit then
        (* Drain the rest of the oversized line so a follow-up [recv]
           starts at a line boundary, then report the typed error. *)
        let rec drain () =
          match input_char ic with
          | exception End_of_file -> ()
          | '\n' -> ()
          | _ -> drain ()
        in
        begin
          drain ();
          Error (Printf.sprintf "request exceeds %d bytes" limit)
        end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
  in
  loop ()

let default_limit_bytes = 64 * 1024 * 1024

let rec recv ?(limit_bytes = default_limit_bytes) ic =
  match bounded_line ic limit_bytes with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some line) ->
    if String.trim line = "" then recv ~limit_bytes ic
    else begin
      match J.of_string line with
      | Ok json -> Ok (Some json)
      | Error msg -> Error ("bad wire line: " ^ msg)
    end
