(* The durability protocol, written once.  Journal, queue WAL, result
   cache and artefact store all persist through these few functions,
   so "what survives a crash" is decided in one place. *)

(* Flush the channel, then fsync the fd: without the fsync a
   power-loss-style crash can commit the file name (via the directory)
   while the bytes are still in flight. *)
let fsync_channel oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let replace ?(sync = true) path write =
  let dir = Filename.dirname path in
  (* 0o666 under the umask: the permissions a plain open_out gives. *)
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666 ~temp_dir:dir
      (Filename.basename path ^ ".") ".tmp"
  in
  match
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        write oc;
        if sync then fsync_channel oc;
        close_out oc);
    Sys.rename tmp path
  with
  | () -> if sync then fsync_dir dir
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let append oc line =
  output_string oc line;
  output_char oc '\n';
  fsync_channel oc

let fold_lines path ~init f =
  In_channel.with_open_bin path (fun ic ->
      let rec loop acc =
        match In_channel.input_line ic with
        | None -> acc
        | Some line -> loop (f acc line)
      in
      loop init)

let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (dir ^ " exists and is not a directory")
  else
    match ensure_dir (Filename.dirname dir) with
    | Error _ as e -> e
    | Ok () -> (
      match Unix.mkdir dir 0o755 with
      | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) -> Ok ()
      | exception Unix.Unix_error (err, _, _) ->
        Error (dir ^ ": " ^ Unix.error_message err))

let digest_len = 32

let seal ~magic payload =
  String.concat "" [ magic; Digest.to_hex (Digest.string payload); payload ]

let unseal ~magic blob =
  let m = String.length magic in
  let header = m + digest_len in
  if String.length blob < header || not (String.starts_with ~prefix:magic blob)
  then None
  else
    let payload = String.sub blob header (String.length blob - header) in
    if String.equal (Digest.to_hex (Digest.string payload)) (String.sub blob m digest_len)
    then Some payload
    else None
