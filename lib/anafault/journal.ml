(* Crash-safe campaign journal: a JSONL file holding one header line
   (campaign fingerprint) plus one line per completed fault, flushed as
   it is written.  A campaign killed at any point leaves at worst one
   torn trailing line, which resume ignores; every intact line is a
   fault that never needs re-simulating. *)

module J = Obs.Json

let fingerprint pieces = Digest.to_hex (Digest.string (String.concat "\x00" pieces))

type t = {
  path : string;
  fingerprint : string;
  total : int;
  oc : out_channel;
  lock : Mutex.t;
  (* Results restored from disk at open plus everything recorded since;
     [find] serves the campaign loops, so a fault is never simulated
     twice per journal. *)
  completed : (int, Outcome.fault_result) Hashtbl.t;
  restored : int;
}

let header_line ~fingerprint ~total =
  J.to_string
    (J.Obj
       [
         ("journal", J.String "anafault");
         ("version", J.Int 1);
         ("fingerprint", J.String fingerprint);
         ("faults", J.Int total);
       ])

let parse_header line ~fingerprint ~total =
  match J.of_string line with
  | Error msg -> Error ("journal header is not JSON: " ^ msg)
  | Ok json -> begin
    match J.obj_fields json with
    | Error _ -> Error "journal header is not an object"
    | Ok fields -> begin
      match
        ( J.require fields "journal" J.as_str,
          J.require fields "version" J.as_int,
          J.require fields "fingerprint" J.as_str,
          J.require fields "faults" J.as_int )
      with
      | Ok "anafault", Ok 1, Ok fp, Ok n ->
        if not (String.equal fp fingerprint) then
          Error
            "journal fingerprint mismatch: it belongs to a different campaign \
             (circuit, config or fault list changed)"
        else if n <> total then
          Error
            (Printf.sprintf "journal holds %d faults, campaign has %d" n total)
        else Ok ()
      | Ok "anafault", Ok v, _, _ when v <> 1 ->
        Error (Printf.sprintf "unsupported journal version %d" v)
      | _ -> Error "not an anafault journal"
    end
  end

(* Read every line of an existing journal; unparseable lines (the torn
   tail of a crashed append, at worst) are skipped.  Later entries for
   the same index win, so a journal that was resumed before a
   now-skipped line stays consistent. *)
let restore path ~fingerprint ~faults tbl =
  let total = Array.length faults in
  Durable.fold_lines path ~init:None (fun header line ->
      match header with
      | None -> Some (parse_header line ~fingerprint ~total)
      | Some (Error _) -> header
      | Some (Ok ()) ->
        (if String.trim line <> "" then
           match Result.bind (J.of_string line) (Outcome.result_of_json ~faults) with
           | Ok (index, result) -> Hashtbl.replace tbl index result
           | Error _ -> () (* torn tail of a crashed append *));
        header)
  |> Option.value ~default:(Error "journal file is empty")

let by_index tbl =
  Hashtbl.fold (fun i r acc -> (i, r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Lay the journal out as a fresh serial run writes it - one header,
   then result lines in index order - atomically, so a crash mid-rewrite
   leaves the old journal, never a torn one. *)
let rewrite path ~fingerprint ~total tbl =
  let line oc s =
    output_string oc s;
    output_char oc '\n'
  in
  Durable.replace path (fun oc ->
      line oc (header_line ~fingerprint ~total);
      List.iter
        (fun (index, r) -> line oc (J.to_string (Outcome.result_to_json ~index r)))
        (by_index tbl))

let start ~path ~fingerprint ~resume ~faults =
  let total = Array.length faults in
  let completed = Hashtbl.create 64 in
  let opened =
    if resume && Sys.file_exists path then
      match restore path ~fingerprint ~faults completed with
      | Error msg -> Error (path ^ ": " ^ msg)
      | Ok () ->
        (* Rewritten before anything appends: a torn last line left in
           place would swallow the next record into an unparseable
           line, and that fault would be simulated again. *)
        rewrite path ~fingerprint ~total completed;
        Ok (open_out_gen [ Open_wronly; Open_append ] 0o644 path)
    else begin
      let oc = open_out path in
      Durable.append oc (header_line ~fingerprint ~total);
      Durable.fsync_dir (Filename.dirname path);
      Ok oc
    end
  in
  Result.map
    (fun oc ->
      {
        path;
        fingerprint;
        total;
        oc;
        lock = Mutex.create ();
        completed;
        restored = Hashtbl.length completed;
      })
    opened

let find t index fault =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.completed index with
  | Some r when String.equal r.Outcome.fault.Faults.Fault.id fault.Faults.Fault.id
    ->
    Some r
  | Some _ | None -> None

let record t index result =
  Mutex.protect t.lock @@ fun () ->
  Obs.Failpoint.hit "journal.record";
  Hashtbl.replace t.completed index result;
  Durable.append t.oc (J.to_string (Outcome.result_to_json ~index result))

let restored_count t = t.restored

let total t = t.total

let path t = t.path

let close t = close_out_noerr t.oc
