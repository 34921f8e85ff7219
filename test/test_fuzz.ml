(* Fuzzing the parsers that read outside input: SPICE decks, fault-list
   files and the daemon's NDJSON requests.  Whatever the bytes, each may
   fail only with its own typed error - [Netlist.Parser.Parse_error],
   [Faults.Fault_list.Parse_error], or [Error _] from [Protocol.recv] and
   [Protocol.request_of_json].  Any other exception fails the property.

   Inputs are valid seeds under a few random edits (byte flips, inserted
   syntax tokens, deleted or duplicated spans, truncation), plus
   arbitrary strings. *)

module Protocol = Anafaultd.Protocol

let insert s i t = String.sub s 0 i ^ t ^ String.sub s i (String.length s - i)

let delete s i len =
  let n = String.length s in
  let len = min len (n - i) in
  String.sub s 0 i ^ String.sub s (i + len) (n - i - len)

let duplicate s i len =
  insert s i (String.sub s i (min len (String.length s - i)))

let replace s i c = String.mapi (fun j x -> if j = i then c else x) s

let edit tokens s =
  let open QCheck.Gen in
  let n = String.length s in
  int_bound n >>= fun i ->
  oneof
    [
      map (fun c -> if i < n then replace s i c else s ^ String.make 1 c) char;
      map (insert s i) (oneofl tokens);
      map (delete s i) (int_range 1 12);
      map (duplicate s i) (int_range 1 60);
      return (String.sub s 0 i);
    ]

let mutated ~tokens seeds =
  let open QCheck.Gen in
  let rec edits k s = if k = 0 then return s else edit tokens s >>= edits (k - 1) in
  let gen =
    frequency
      [
        (1, string ?gen:None);
        (1, map (String.concat "") (list_size (int_range 0 30) (oneofl tokens)));
        (8, oneofl seeds >>= fun s -> int_range 1 8 >>= fun k -> edits k s);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let deck_seeds =
  [
    "two-stage amplifier\n\
     VDD vdd 0 5\n\
     VIN in 0 PULSE(0 5 0 10n 10n 1u 2u)\n\
     RD1 vdd mid 10k\n\
     M1 mid in 0 0 NM W=20u L=1u\n\
     RD2 vdd out 10k\n\
     M2 out mid 0 0 NM W=20u L=1u\n\
     CF fb 0 50f\n\
     .model NM NMOS VTO=1 KP=60u\n\
     .tran 20n 4u UIC\n\
     .end\n";
    "t\n* comment\nVX a 0 PWL(0 0\n+ 1u 5)\nV1 b 0 SIN(1 2 1k 0)\n\
     L1 a b 1m IC=1m\nD1 b 0 DX ; trailing\n.model DX D IS=2e-14 N=1.5\n.end\n";
    "sub\n.subckt INV in out vdd\nM1 out in 0 0 NM W=2u L=1u\nR1 vdd out 10k\n.ends\n\
     XA a b vdd INV\nXB b c vdd INV\nVDD vdd 0 5\n.model NM NMOS VTO=1 KP=60u\n\
     .tran 10n 1u\n.end\n";
  ]

let deck_tokens =
  [ "\n"; " "; "("; ")"; "="; "+"; "*"; ";"; "0"; "-1"; "1e999"; "nan"; "1k"; "u";
    ".model"; ".tran"; ".subckt X a"; ".ends"; ".end"; "X1 a b INV"; "PULSE(";
    "SIN("; "PWL("; "IC="; "W="; "M9 a b c d"; "R1 a 0 1k"; "\t"; "\r"; "\000" ]

let fault_seeds =
  [
    "# ranked fault list\n\
     #1 metal1_short BRI out 0 p=0.4\n\
     #2 via_open OPEN in / M1.1 M2.0 p=0.1\n\
     #3 gate_oxide SOPEN M2 p=1e-7\n\
     ; trailing comment\n\
     #4 poly_open OPEN mid / RD1.1\n";
  ]

let fault_tokens =
  [ "\n"; " "; "#"; "# "; ";"; "/"; "."; "p="; "p=nan"; "p=-1"; "BRI"; "OPEN";
    "SOPEN"; "M1.x"; ".1"; "M1."; "99999999999999999999"; "\t"; "\000" ]

let request_seeds =
  let spec =
    {
      Anafault.Campaign.deck = List.hd deck_seeds;
      observed = Some "out";
      faults = List.hd fault_seeds;
      options = Anafault.Campaign.default_options;
    }
  in
  List.map
    (fun r -> Obs.Json.to_string (Protocol.request_to_json r) ^ "\n")
    [
      Protocol.Submit { spec; client = Some "ci"; deadline_s = Some 30.0 };
      Protocol.Extract
        {
          lift =
            {
              Protocol.layout = "tech lambda=500\n";
              p_min = 0.0;
              uniform_pdf = false;
              merge_equivalent = true;
              tile_nm = 0;
            };
          simulate = Some spec;
          client = None;
          deadline_s = None;
        };
      Protocol.Cancel { fingerprint = "abc" };
      Protocol.Stats;
      Protocol.Ping;
    ]

let request_tokens =
  [ "\n"; " "; "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "\\u00"; "\\ud800";
    "null"; "nan"; "true"; "-"; "1e999"; "0.5"; "\"cmd\""; "\"submit\"";
    "\"options\":"; "{\"cmd\":\"ping\"}"; "\000" ]

(* Drain a channel through [recv], decoding every line it accepts. *)
let recv_all ic =
  let rec go () =
    match Protocol.recv ~limit_bytes:4096 ic with
    | Ok None -> ()
    | Ok (Some json) ->
      ignore (Protocol.request_of_json json);
      go ()
    | Error _ -> go ()
  in
  go ()

let with_temp_channel text f =
  let path = Filename.temp_file "fuzz" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  In_channel.with_open_bin path f

let properties =
  let open QCheck in
  [
    Test.make ~name:"deck parser raises only Parse_error" ~count:3000
      (mutated ~tokens:deck_tokens deck_seeds) (fun text ->
        match Netlist.Parser.parse text with
        | _ -> true
        | exception Netlist.Parser.Parse_error _ -> true);
    Test.make ~name:"fault-list parser raises only Parse_error" ~count:3000
      (mutated ~tokens:fault_tokens fault_seeds) (fun text ->
        match Faults.Fault_list.of_string text with
        | _ -> true
        | exception Faults.Fault_list.Parse_error _ -> true);
    Test.make ~name:"recv and request decoding never raise" ~count:1000
      (mutated ~tokens:request_tokens request_seeds) (fun text ->
        with_temp_channel text recv_all;
        true);
  ]
  |> List.map Prop.to_alcotest

let fixed_tests =
  [
    Alcotest.test_case "deeply nested JSON is a typed error" `Quick (fun () ->
        let nest depth = String.make depth '[' ^ String.make depth ']' ^ "\n" in
        with_temp_channel (nest 1_000_000 ^ nest 100 ^ "{\"cmd\":\"ping\"}\n")
          (fun ic ->
            Alcotest.(check bool)
              "too deep" true
              (Result.is_error (Protocol.recv ic));
            (match Protocol.recv ic with
            | Ok (Some json) ->
              Alcotest.(check bool)
                "shallow nesting parses, and is not a request" true
                (Result.is_error (Protocol.request_of_json json))
            | Ok None | Error _ -> Alcotest.fail "expected the 100-deep list");
            match Protocol.recv ic with
            | Ok (Some json) ->
              Alcotest.(check bool)
                "stream continues" true
                (Protocol.request_of_json json = Ok Protocol.Ping)
            | Ok None | Error _ -> Alcotest.fail "expected the ping"));
  ]

let suites = [ ("fuzz.parsers", properties @ fixed_tests) ]
