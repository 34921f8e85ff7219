(* The durability protocol: atomic replace, fsynced append, line
   folding, recursive mkdir and the sealed-blob framing that the
   artefact store and the result cache validate reads with. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let temp_dir () =
  let dir = Filename.temp_file "durable" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let read path = In_channel.with_open_bin path In_channel.input_all

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

exception Disk_full

let replace_tests =
  [
    Alcotest.test_case "replace commits the new contents" `Quick (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "f" in
        write path "old";
        Durable.replace path (fun oc -> output_string oc "new");
        check_string "replaced" "new" (read path);
        Durable.replace ~sync:false path (fun oc -> output_string oc "newer");
        check_string "replaced unsynced" "newer" (read path);
        check_bool "only the target in the directory" true
          (Sys.readdir dir = [| "f" |]));
    Alcotest.test_case "a replace whose write raises keeps the old file"
      `Quick (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "f" in
        write path "old";
        (match
           Durable.replace path (fun oc ->
               output_string oc "half of the new";
               raise Disk_full)
         with
        | () -> Alcotest.fail "expected the write's exception"
        | exception Disk_full -> ());
        check_string "old contents intact" "old" (read path);
        check_bool "no temporary file left behind" true
          (Sys.readdir dir = [| "f" |]));
    Alcotest.test_case "a replace into a missing directory raises" `Quick
      (fun () ->
        let dir = temp_dir () in
        match
          Durable.replace (Filename.concat dir "no/such/f") (fun oc ->
              output_string oc "x")
        with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ ->
          check_bool "nothing created" true (Sys.readdir dir = [||]));
  ]

let log_tests =
  [
    Alcotest.test_case "append then fold_lines sees every line" `Quick
      (fun () ->
        let path = Filename.concat (temp_dir ()) "log" in
        let oc = open_out path in
        List.iter (Durable.append oc) [ "one"; ""; "three" ];
        (* A torn tail: bytes without their newline. *)
        output_string oc "fou";
        close_out oc;
        let lines = Durable.fold_lines path ~init:[] (fun acc l -> l :: acc) in
        check_bool "in order, blank and torn lines included" true
          (List.rev lines = [ "one"; ""; "three"; "fou" ]));
    Alcotest.test_case "ensure_dir creates parents and refuses a file"
      `Quick (fun () ->
        let dir = temp_dir () in
        let deep = Filename.concat dir "a/b/c" in
        check_bool "created" true (Durable.ensure_dir deep = Ok ());
        check_bool "is a directory" true (Sys.is_directory deep);
        check_bool "idempotent" true (Durable.ensure_dir deep = Ok ());
        let file = Filename.concat dir "file" in
        write file "";
        check_bool "a file in the way" true
          (Result.is_error (Durable.ensure_dir file));
        check_bool "a file in the parent path" true
          (Result.is_error (Durable.ensure_dir (Filename.concat file "sub"))));
  ]

let magic = "LIFTPIPE1\n"

let seal_tests =
  [
    Alcotest.test_case "unseal inverts seal" `Quick (fun () ->
        List.iter
          (fun p ->
            check_bool (String.escaped p) true
              (Durable.unseal ~magic (Durable.seal ~magic p) = Some p))
          [ ""; "hello"; String.init 256 Char.chr; String.make 100_000 'x' ]);
    Alcotest.test_case "the LIFTPIPE1 frame is the artefact format" `Quick
      (fun () ->
        (* The bytes an artefact store holding the payload "hello" has
           always written: magic, MD5 hex of the payload, payload. *)
        check_string "frame" "LIFTPIPE1\n5d41402abc4b2a76b9719d911017c592hello"
          (Durable.seal ~magic "hello"));
    Alcotest.test_case "unseal refuses damaged blobs" `Quick (fun () ->
        let blob = Durable.seal ~magic "payload bytes" in
        let flip i =
          String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor 1) else c) blob
        in
        List.iter
          (fun (what, bad) ->
            check_bool what true (Durable.unseal ~magic bad = None))
          [
            ("wrong magic", Durable.seal ~magic:"LIFTPIPE2\n" "payload bytes");
            ("truncated payload", String.sub blob 0 (String.length blob - 1));
            ("truncated checksum", String.sub blob 0 (String.length magic + 10));
            ("empty", "");
            ("flipped payload byte", flip (String.length blob - 1));
            ("flipped checksum byte", flip (String.length magic));
            ("flipped magic byte", flip 0);
          ]);
  ]

let suites =
  [
    ("durable.replace", replace_tests);
    ("durable.log", log_tests);
    ("durable.seal", seal_tests);
  ]
