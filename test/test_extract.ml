(* Tests for layout extraction: connectivity, MOS recognition, netlist
   generation and LVS comparison. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tech = Layout.Tech.default

let pt = Geom.Point.make

(* A CMOS inverter: NMOS below, PMOS above, poly gates tied, drains tied
   by metal1, supply rails. *)
let inverter_mask () =
  let b = Layout.Builder.create tech in
  let mn = Layout.Builder.mos b ~name:"MN" ~kind:`N ~at:(pt 0 0) ~w:4000 ~l:1000 () in
  let mp = Layout.Builder.mos b ~name:"MP" ~kind:`P ~at:(pt 0 20000) ~w:8000 ~l:1000 () in
  (* Gates: poly wire joining the two gate stubs, with an input contact. *)
  Layout.Builder.wire b Layout.Layer.Poly ~width:1000
    [ mn.Layout.Builder.gate; pt mn.Layout.Builder.gate.Geom.Point.x 14000 ];
  Layout.Builder.wire b Layout.Layer.Poly ~width:1000
    [ pt mp.Layout.Builder.gate.Geom.Point.x 14000; mp.Layout.Builder.gate ];
  Layout.Builder.wire b Layout.Layer.Poly ~width:1000
    [ pt mn.Layout.Builder.gate.Geom.Point.x 14000; pt (-2000) 14000 ];
  Layout.Builder.contact b ~to_:Layout.Layer.Poly (pt (-2000) 14000);
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000
    [ pt (-2000) 14000; pt (-8000) 14000 ];
  (* Output: drains joined on metal1. *)
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000
    [ mn.Layout.Builder.drain; mp.Layout.Builder.drain ];
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000
    [ mn.Layout.Builder.drain; pt 25000 2000 ];
  (* Rails. *)
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000
    [ mn.Layout.Builder.source; pt mn.Layout.Builder.source.Geom.Point.x (-8000) ];
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000
    [ mp.Layout.Builder.source; pt mp.Layout.Builder.source.Geom.Point.x 36000 ];
  Layout.Builder.label b Layout.Layer.Metal1 (pt mn.Layout.Builder.source.Geom.Point.x (-8000)) "0";
  Layout.Builder.label b Layout.Layer.Metal1 (pt mp.Layout.Builder.source.Geom.Point.x 36000) "1";
  Layout.Builder.label b Layout.Layer.Metal1 (pt (-8000) 14000) "in";
  Layout.Builder.label b Layout.Layer.Metal1 (pt 25000 2000) "out";
  Layout.Builder.finish b

let golden_inverter =
  Netlist.Circuit.of_devices "inverter"
    [
      Netlist.Device.M
        { name = "MN"; d = "out"; g = "in"; s = "0"; b = "0";
          model = Netlist.Device.default_nmos; w = 4e-6; l = 1e-6 };
      Netlist.Device.M
        { name = "MP"; d = "out"; g = "in"; s = "1"; b = "1";
          model = Netlist.Device.default_pmos; w = 8e-6; l = 1e-6 };
    ]

let extraction_tests =
  [
    Alcotest.test_case "inverter: two transistors recognised" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        check_int "mosfets" 2 (List.length ext.Extract.Extraction.channels);
        check_int "devices" 2 (Netlist.Circuit.device_count ext.Extract.Extraction.circuit));
    Alcotest.test_case "inverter: nets named from labels" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        let names = Array.to_list ext.Extract.Extraction.net_names in
        List.iter
          (fun n -> check_bool ("net " ^ n) true (List.mem n names))
          [ "0"; "1"; "in"; "out" ]);
    Alcotest.test_case "inverter: connections correct" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        match Netlist.Circuit.find ext.Extract.Extraction.circuit "MN" with
        | Some (Netlist.Device.M { g; d; s; _ }) ->
          check_string "gate" "in" g;
          check_bool "d/s" true
            (List.sort compare [ d; s ] = [ "0"; "out" ])
        | _ -> Alcotest.fail "MN missing");
    Alcotest.test_case "inverter: W/L from geometry" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        let ch =
          List.find
            (fun (c : Extract.Extraction.channel) -> c.device = "MN")
            ext.Extract.Extraction.channels
        in
        check_int "W" 4000 ch.Extract.Extraction.w_nm;
        check_int "L" 1000 ch.Extract.Extraction.l_nm);
    Alcotest.test_case "inverter: device kinds" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        let kind name =
          let ch =
            List.find
              (fun (c : Extract.Extraction.channel) -> c.device = name)
              ext.Extract.Extraction.channels
          in
          ch.Extract.Extraction.kind
        in
        check_bool "MN is N" true (kind "MN" = `N);
        check_bool "MP is P" true (kind "MP" = `P));
    Alcotest.test_case "inverter: LVS clean vs golden" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        let mismatches =
          Extract.Compare.run ~golden:golden_inverter
            ~extracted:ext.Extract.Extraction.circuit ()
        in
        Alcotest.(check (list string))
          "clean" []
          (List.map (Format.asprintf "%a" Extract.Compare.pp_mismatch) mismatches));
    Alcotest.test_case "LVS catches a miswired gate" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        let bad =
          Netlist.Circuit.replace golden_inverter
            (Netlist.Device.M
               { name = "MN"; d = "out"; g = "out"; s = "0"; b = "0";
                 model = Netlist.Device.default_nmos; w = 4e-6; l = 1e-6 })
        in
        check_bool "mismatch found" true
          (Extract.Compare.run ~golden:bad ~extracted:ext.Extract.Extraction.circuit ()
           <> []));
    Alcotest.test_case "LVS catches a missing device" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        let bigger =
          Netlist.Circuit.add golden_inverter
            (Netlist.Device.R { name = "RX"; n1 = "a"; n2 = "b"; value = 1.0 })
        in
        check_bool "missing reported" true
          (List.exists
             (fun m -> m = Extract.Compare.Missing_device "RX")
             (Extract.Compare.run ~golden:bigger ~extracted:ext.Extract.Extraction.circuit ())));
    Alcotest.test_case "terminals anchored on conductors" `Quick (fun () ->
        let ext = Extract.Extractor.extract (inverter_mask ()) in
        check_int "3 per mosfet" 6 (List.length ext.Extract.Extraction.terminals);
        List.iter
          (fun (t : Extract.Extraction.terminal) ->
            check_bool "conductor in range" true
              (t.conductor >= 0 && t.conductor < Array.length ext.Extract.Extraction.conductors))
          ext.Extract.Extraction.terminals);
    Alcotest.test_case "unlabeled layout synthesises names" `Quick (fun () ->
        let b = Layout.Builder.create tech in
        ignore (Layout.Builder.mos b ~name:"M1" ~kind:`N ~at:(pt 0 0) ~w:4000 ~l:1000 ());
        let ext = Extract.Extractor.extract (Layout.Builder.finish b) in
        check_bool "nets > 0" true (Extract.Extraction.net_count ext > 0));
    Alcotest.test_case "label over empty space errors" `Quick (fun () ->
        let b = Layout.Builder.create tech in
        ignore (Layout.Builder.mos b ~name:"M1" ~kind:`N ~at:(pt 0 0) ~w:4000 ~l:1000 ());
        Layout.Builder.label b Layout.Layer.Metal2 (pt 99999 99999) "ghost";
        match Extract.Extractor.extract (Layout.Builder.finish b) with
        | exception Extract.Extractor.Extract_error _ -> ()
        | _ -> Alcotest.fail "expected Extract_error");
    Alcotest.test_case "plate capacitor recognised" `Quick (fun () ->
        let b = Layout.Builder.create tech in
        let plate = Geom.Rect.make 0 0 20000 20000 in
        Layout.Builder.rect b Layout.Layer.Poly plate;
        Layout.Builder.rect b Layout.Layer.Metal2 plate;
        (match Layout.Builder.finish b with
        | m ->
          let m = Layout.Mask.add_hint m "C1" plate in
          let ext = Extract.Extractor.extract m in
          (match Netlist.Circuit.find ext.Extract.Extraction.circuit "C1" with
          | Some (Netlist.Device.C { value; _ }) ->
            Alcotest.(check (float 1e-18))
              "value" (4e8 *. Extract.Extractor.default_options.cap_per_nm2) value
          | _ -> Alcotest.fail "C1 missing")));
    Alcotest.test_case "series transistors share a diffusion piece" `Quick (fun () ->
        (* Two gates crossing one diffusion strip: 3 pieces, middle shared. *)
        let b = Layout.Builder.create tech in
        let strip = Geom.Rect.make 0 0 30000 4000 in
        Layout.Builder.rect b Layout.Layer.Ndiff strip;
        Layout.Builder.wire b Layout.Layer.Poly ~width:1000 [ pt 10000 (-2000); pt 10000 6000 ];
        Layout.Builder.wire b Layout.Layer.Poly ~width:1000 [ pt 20000 (-2000); pt 20000 6000 ];
        let ext = Extract.Extractor.extract (Layout.Builder.finish b) in
        check_int "two mosfets" 2 (List.length ext.Extract.Extraction.channels);
        match ext.Extract.Extraction.channels with
        | [ c1; c2 ] ->
          check_bool "share a piece" true
            (c1.Extract.Extraction.drain = c2.Extract.Extraction.source
            || c1.Extract.Extraction.source = c2.Extract.Extraction.drain
            || c1.Extract.Extraction.drain = c2.Extract.Extraction.drain
            || c1.Extract.Extraction.source = c2.Extract.Extraction.source)
        | _ -> Alcotest.fail "expected 2 channels");
  ]

(* Property: a random row of disjoint transistors extracts to exactly
   that many devices with consistent W/L and three terminals each. *)
let extraction_qcheck =
  let open QCheck in
  let spec =
    Gen.(
      list_size (int_range 1 6)
        (triple (oneofl [ `N; `P ]) (int_range 2000 20000) (int_range 1000 4000)))
  in
  let print_spec l =
    String.concat ";"
      (List.map (fun (k, w, l') ->
           Printf.sprintf "%s/%d/%d" (match k with `N -> "N" | `P -> "P") w l') l)
  in
  [
    Test.make ~name:"random transistor rows extract faithfully" ~count:60
      (make ~print:print_spec spec)
      (fun devices ->
        let b = Layout.Builder.create tech in
        let x = ref 0 in
        List.iteri
          (fun i (kind, w, l) ->
            ignore
              (Layout.Builder.mos b
                 ~name:(Printf.sprintf "M%d" (i + 1))
                 ~kind ~at:(pt !x 0) ~w ~l ());
            x := !x + l + 40000)
          devices;
        let ext = Extract.Extractor.extract (Layout.Builder.finish b) in
        List.length ext.Extract.Extraction.channels = List.length devices
        && List.for_all2
             (fun (kind, w, l) (c : Extract.Extraction.channel) ->
               c.kind = kind && c.w_nm = w && c.l_nm = l)
             devices
             (List.sort
                (fun (a : Extract.Extraction.channel) b ->
                  compare a.device b.device)
                ext.Extract.Extraction.channels)
        && List.length ext.Extract.Extraction.terminals = 3 * List.length devices);
  ]
  |> List.map Prop.to_alcotest

let suites =
  [ ("extract", extraction_tests); ("extract.properties", extraction_qcheck) ]
