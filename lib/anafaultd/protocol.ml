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
  let* fields = J.obj_fields json in
  let* layout = J.require fields "layout" J.as_str in
  let* p_min = J.get fields "p_min" ~default:0.0 J.as_float in
  let* uniform_pdf = J.get fields "uniform_pdf" ~default:false J.as_bool in
  let* merge_equivalent = J.get fields "merge_equivalent" ~default:true J.as_bool in
  let* tile_nm = J.get fields "tile_nm" ~default:0 J.as_int in
  if tile_nm < 0 then Error "tile_nm: want a non-negative integer"
  else Ok { layout; p_min; uniform_pdf; merge_equivalent; tile_nm }

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
  let* fields = J.obj_fields json in
  let* cmd = J.require fields "cmd" J.as_str in
  let client () = J.get fields "client" ~default:None (J.as_opt J.as_str) in
  let deadline_s () =
    match J.get fields "deadline_s" ~default:None (J.as_opt J.as_float) with
    | Ok (Some d) when not (d > 0.0) ->
      Error "deadline_s: want a positive number"
    | r -> r
  in
  let in_cmd r = Result.map_error (fun msg -> cmd ^ ": " ^ msg) r in
  in_cmd
  @@
  match cmd with
  | "submit" ->
    let* spec = J.require fields "spec" Anafault.Campaign.spec_of_json in
    let* client = client () in
    let* deadline_s = deadline_s () in
    Ok (Submit { spec; client; deadline_s })
  | "extract" ->
    let* lift = J.require fields "lift" lift_spec_of_json in
    let* simulate =
      J.get fields "simulate" ~default:None
        (J.as_opt Anafault.Campaign.spec_of_json)
    in
    let* client = client () in
    let* deadline_s = deadline_s () in
    Ok (Extract { lift; simulate; client; deadline_s })
  | "cancel" ->
    let* fingerprint = J.require fields "fingerprint" J.as_str in
    Ok (Cancel { fingerprint })
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | "shutdown" -> Ok Shutdown
  | _ -> Error "unknown command"

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
  match J.obj_fields json with
  | Ok fields when J.get fields "event" ~default:"" J.as_str = Ok "rejected" ->
    let* reason = J.require fields "reason" J.as_str in
    let* reason = reject_reason_of_string reason in
    let* message = J.get fields "message" ~default:"" J.as_str in
    Ok (Some (reason, message))
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

(* Like [rejected_of_json]: [Ok None] for anything but an answer. *)
let extracted_of_json json =
  match J.obj_fields json with
  | Ok fields when J.get fields "event" ~default:"" J.as_str = Ok "extracted" ->
    let* ex_fingerprint = J.require fields "fingerprint" J.as_str in
    let* ex_faults = J.require fields "faults" J.as_str in
    let* ex_cached = J.get fields "cached" ~default:false J.as_bool in
    let* ex_sites = J.require fields "sites_considered" J.as_int in
    let* ex_bridging = J.require fields "bridging" J.as_int in
    let* ex_line_opens = J.require fields "line_opens" J.as_int in
    let* ex_contact_opens = J.require fields "contact_opens" J.as_int in
    let* ex_stuck_opens = J.require fields "stuck_opens" J.as_int in
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
