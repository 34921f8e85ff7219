(* The persistent job queue: a write-ahead journal of submissions, so
   queued work survives kill -9.

   One JSONL file, append-only between compactions:

     {"queue":"anafaultd","version":1}
     {"op":"push","fingerprint":"3f2a...","client":"ci","spec":{...}}
     {"op":"done","fingerprint":"3f2a..."}

   A [push] is appended (and fsynced) before the submission is
   acknowledged; a [done] is appended when the job leaves the system
   (finished, failed, or served to nobody).  Replay is push minus done
   in arrival order, so a daemon restarted over the same work directory
   re-enqueues exactly the jobs that were queued or running when it
   died - the running one resumes from its campaign journal.  A crash
   can tear at most the final line, which replay skips: a torn push was
   never acknowledged, a torn done re-runs a completed job into a
   cache hit.  Duplicate pushes of one fingerprint collapse.

   Compaction (at open, and after enough dead records accumulate)
   rewrites the file as header + pending pushes with one
   [Durable.replace], so the journal's size tracks the queue depth, not the
   daemon's lifetime. *)

module Campaign = Anafault.Campaign
module J = Obs.Json

let ( let* ) = Result.bind

type entry = { fingerprint : string; client : string; spec : Campaign.spec }

type t = {
  path : string;
  lock : Mutex.t;
  mutable oc : out_channel;
  (* The queue's live image, in arrival order (newest last): what a
     compaction writes and [mark_done] filters. *)
  mutable entries : entry list;
  mutable dead : int; (* done records since the last compaction *)
}

(* Dead records tolerated before [mark_done] compacts in place. *)
let compact_after = 128

let header = J.Obj [ ("queue", J.String "anafaultd"); ("version", J.Int 1) ]

let entry_to_json e =
  J.Obj
    [
      ("op", J.String "push");
      ("fingerprint", J.String e.fingerprint);
      ("client", J.String e.client);
      ("spec", Campaign.spec_to_json e.spec);
    ]

let done_to_json fp =
  J.Obj [ ("op", J.String "done"); ("fingerprint", J.String fp) ]

let entry_of_fields fields =
  let* fingerprint = J.require fields "fingerprint" J.as_str in
  let* client = J.require fields "client" J.as_str in
  let* spec = J.require fields "spec" Campaign.spec_of_json in
  Ok { fingerprint; client; spec }

let pending_in entries fp =
  List.exists (fun e -> String.equal e.fingerprint fp) entries

let without entries fp =
  List.filter (fun e -> not (String.equal e.fingerprint fp)) entries

(* Replay an existing journal into the live image.  Unparseable lines -
   the torn tail of a crashed append, at worst - are skipped, as are
   records damaged beyond reading; losing a push loses only work that
   was never acknowledged durable. *)
let replay path =
  Durable.fold_lines path ~init:[] (fun entries (* newest first *) line ->
      let record =
        let* fields = Result.bind (J.of_string line) J.obj_fields in
        let* op = J.get fields "op" ~default:"" J.as_str in
        match op with
        | "push" ->
          let* e = entry_of_fields fields in
          Ok (if pending_in entries e.fingerprint then entries else e :: entries)
        | "done" ->
          let* fp = J.require fields "fingerprint" J.as_str in
          Ok (without entries fp)
        | _ -> Ok entries (* the header line, or an unknown future op *)
      in
      Result.value record ~default:entries)
  |> List.rev

(* Rewrite the journal as header + pending pushes, atomically. *)
let compact_to path entries =
  Durable.replace path (fun oc ->
      List.iter
        (fun json ->
          output_string oc (J.to_string json);
          output_char oc '\n')
        (header :: List.map entry_to_json entries))

let open_ ~path =
  match
    let entries = if Sys.file_exists path then replay path else [] in
    compact_to path entries;
    let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
    ({ path; lock = Mutex.create (); oc; entries; dead = 0 }, entries)
  with
  | v -> Ok v
  | exception Sys_error msg -> Error (path ^ ": " ^ msg)
  | exception Unix.Unix_error (err, _, _) ->
    Error (path ^ ": " ^ Unix.error_message err)

let push t entry =
  Mutex.protect t.lock @@ fun () ->
  if pending_in t.entries entry.fingerprint then
    Ok () (* already pending: the twin coalesces, nothing to journal *)
  else begin
    match
      Obs.Failpoint.hit "queue.append";
      Durable.append t.oc (J.to_string (entry_to_json entry));
      Obs.Failpoint.hit "queue.appended"
    with
    | () ->
      t.entries <- t.entries @ [ entry ];
      Ok ()
    | exception Sys_error msg -> Error ("queue journal: " ^ msg)
  end

let mark_done t fp =
  Mutex.protect t.lock @@ fun () ->
  if pending_in t.entries fp then begin
    t.entries <- without t.entries fp;
    t.dead <- t.dead + 1;
    try
      if t.dead >= compact_after then begin
        close_out_noerr t.oc;
        compact_to t.path t.entries;
        t.oc <- open_out_gen [ Open_wronly; Open_append ] 0o644 t.path;
        t.dead <- 0
      end
      else Durable.append t.oc (J.to_string (done_to_json fp))
    with Sys_error _ -> ()
    (* a failed done record costs one re-run into a cache hit at the
       next restart, never correctness *)
  end

let pending t = Mutex.protect t.lock @@ fun () -> List.length t.entries

let path t = t.path

let close t = Mutex.protect t.lock @@ fun () -> close_out_noerr t.oc
