(* Tests for LIFT: fault-site enumeration and probability ranking.  The
   small fixtures keep each geometric situation legible. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tech = Layout.Tech.default

let pt = Geom.Point.make

(* Two parallel metal1 wires on different nets, 2.5 um apart. *)
let two_wires () =
  let b = Layout.Builder.create tech in
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000 [ pt 0 0; pt 50000 0 ];
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000 [ pt 0 4500; pt 50000 4500 ];
  Layout.Builder.label b Layout.Layer.Metal1 (pt 0 0) "a";
  Layout.Builder.label b Layout.Layer.Metal1 (pt 0 4500) "b";
  Extract.Extractor.extract (Layout.Builder.finish b)

(* A wire chain: terminal-less, but with two transistors hanging off it so
   opens have observable terminals. *)
let chain () =
  let b = Layout.Builder.create tech in
  let m1 = Layout.Builder.mos b ~name:"M1" ~kind:`N ~at:(pt 0 0) ~w:4000 ~l:1000 () in
  let m2 = Layout.Builder.mos b ~name:"M2" ~kind:`N ~at:(pt 60000 0) ~w:4000 ~l:1000 () in
  (* One long metal1 wire joins M1's drain to M2's source. *)
  Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000
    [ m1.Layout.Builder.drain; pt 30000 2000; m2.Layout.Builder.source ];
  Layout.Builder.label b Layout.Layer.Metal1 (pt 30000 2000) "mid";
  Layout.Builder.finish b |> Extract.Extractor.extract

let sites_tests =
  [
    Alcotest.test_case "parallel wires yield one bridge site" `Quick (fun () ->
        let ext = two_wires () in
        let sites = Defects.Sites.bridges ext in
        check_int "one pair" 1 (List.length sites);
        match sites with
        | [ s ] ->
          check_bool "metal1" true
            (Layout.Layer.equal s.Defects.Sites.bridge_layer Layout.Layer.Metal1);
          check_bool "positive CA" true (s.Defects.Sites.bridge_ca > 0.0)
        | _ -> assert false);
    Alcotest.test_case "distant wires yield no bridge" `Quick (fun () ->
        let b = Layout.Builder.create tech in
        Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000 [ pt 0 0; pt 50000 0 ];
        Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000 [ pt 0 50000; pt 50000 50000 ];
        let ext = Extract.Extractor.extract (Layout.Builder.finish b) in
        check_int "none" 0 (List.length (Defects.Sites.bridges ext)));
    Alcotest.test_case "closer spacing has larger bridge CA" `Quick (fun () ->
        let at_spacing s =
          let b = Layout.Builder.create tech in
          Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000 [ pt 0 0; pt 50000 0 ];
          Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000
            [ pt 0 (2000 + s); pt 50000 (2000 + s) ];
          let ext = Extract.Extractor.extract (Layout.Builder.finish b) in
          match Defects.Sites.bridges ext with
          | [ site ] -> site.Defects.Sites.bridge_ca
          | _ -> Alcotest.fail "expected one site"
        in
        check_bool "monotone" true (at_spacing 2000 > at_spacing 4000));
    Alcotest.test_case "wire open splits the chain" `Quick (fun () ->
        let ext = chain () in
        let sites = Defects.Sites.opens ext in
        check_bool "has m1 opens" true
          (List.exists
             (fun (s : Defects.Sites.open_site) ->
               Layout.Layer.equal s.open_layer Layout.Layer.Metal1
               && s.moved <> [])
             sites));
    Alcotest.test_case "single-cut contact open splits, double survives" `Quick (fun () ->
        (* Two transistors joined through their contacts: losing a single
           cut separates the terminals; a redundant pair survives. *)
        let with_cuts cuts =
          let b = Layout.Builder.create tech in
          let m1 =
            Layout.Builder.mos b ~name:"M1" ~kind:`N ~at:(pt 0 0) ~w:4000 ~l:1000
              ~contact_cuts:cuts ()
          in
          let m2 =
            Layout.Builder.mos b ~name:"M2" ~kind:`N ~at:(pt 60000 0) ~w:4000 ~l:1000
              ~contact_cuts:cuts ()
          in
          Layout.Builder.wire b Layout.Layer.Metal1 ~width:2000
            [ m1.Layout.Builder.drain; m2.Layout.Builder.source ];
          Defects.Sites.cut_opens (Extract.Extractor.extract (Layout.Builder.finish b))
        in
        check_bool "single splits" true (with_cuts 1 <> []);
        check_bool "double survives" true (with_cuts 2 = []));
    Alcotest.test_case "stuck sites: one per transistor" `Quick (fun () ->
        let ext = chain () in
        check_int "two" 2 (List.length (Defects.Sites.stuck ext)));
    Alcotest.test_case "uniform pdf also yields positive CA" `Quick (fun () ->
        let ext = two_wires () in
        let pdf = Geom.Critical_area.Uniform { x_min = 1000.0; x_max = 8000.0 } in
        match Defects.Sites.bridges ~pdf ext with
        | [ s ] -> check_bool "positive" true (s.Defects.Sites.bridge_ca > 0.0)
        | _ -> Alcotest.fail "expected one site");
  ]

let vco_ext =
  lazy
    (Extract.Extractor.extract ~options:Cat.Demo.extractor_options (Cat.Demo.mask ()))

let lift_tests =
  [
    Alcotest.test_case "lift on the VCO reproduces the paper's shape" `Slow (fun () ->
        let r = Defects.Lift.run (Lazy.force vco_ext) in
        let c = r.Defects.Lift.classes in
        let universe = List.length (Cat.Demo.universe ()) in
        let total = Defects.Lift.total c in
        (* The paper: 70 realistic faults vs 152 schematic faults (54 %
           reduction), bridges dominant.  Shape, not exact numbers. *)
        check_bool "reduction vs universe" true (total < universe);
        check_bool "at least a third fewer" true
          (float_of_int total < 0.67 *. float_of_int universe);
        check_bool "bridges dominate" true
          (c.Defects.Lift.bridging > c.Defects.Lift.line_opens);
        check_bool "some stuck opens" true (c.Defects.Lift.stuck_opens > 0));
    Alcotest.test_case "probabilities in the paper's range" `Slow (fun () ->
        let r = Defects.Lift.run (Lazy.force vco_ext) in
        List.iter
          (fun (f : Faults.Fault.t) ->
            check_bool
              (Printf.sprintf "%s prob %g sane" f.id f.prob)
              true
              (f.prob > 1e-9 && f.prob < 1e-4))
          r.Defects.Lift.faults);
    Alcotest.test_case "ranked is sorted by probability" `Slow (fun () ->
        let r = Defects.Lift.run (Lazy.force vco_ext) in
        let probs = List.map (fun (f : Faults.Fault.t) -> f.prob) (Defects.Lift.ranked r) in
        let rec sorted = function
          | a :: (b :: _ as rest) -> a >= b && sorted rest
          | [ _ ] | [] -> true
        in
        check_bool "sorted" true (sorted probs));
    Alcotest.test_case "the paper's 5-6 diffusion bridge is in the list" `Slow (fun () ->
        (* Fig. 4's fault #6 is an n-diffusion drain-source short between
           nodes 5 and 6; our layout produces the same site. *)
        let r = Defects.Lift.run (Lazy.force vco_ext) in
        check_bool "found" true
          (List.exists
             (fun (f : Faults.Fault.t) ->
               match f.kind with
               | Faults.Fault.Bridge { net_a; net_b } ->
                 List.sort compare [ net_a; net_b ] = [ "5"; "6" ]
                 && f.mechanism = "ndiff_short"
               | Faults.Fault.Break _ | Faults.Fault.Stuck_open _ -> false)
             r.Defects.Lift.faults));
    Alcotest.test_case "merging sums probabilities" `Slow (fun () ->
        let ext = Lazy.force vco_ext in
        let merged = Defects.Lift.run ext in
        let raw =
          Defects.Lift.run
            ~options:{ Defects.Lift.default_options with merge_equivalent = false }
            ext
        in
        check_bool "fewer after merge" true
          (List.length merged.Defects.Lift.faults <= List.length raw.Defects.Lift.faults));
    Alcotest.test_case "higher threshold keeps fewer faults" `Slow (fun () ->
        let ext = Lazy.force vco_ext in
        let n p =
          Defects.Lift.total
            (Defects.Lift.run ~options:{ Defects.Lift.default_options with p_min = p } ext)
              .Defects.Lift.classes
        in
        check_bool "monotone" true (n 1e-7 <= n 1e-8));
    Alcotest.test_case "classes render" `Quick (fun () ->
        let c =
          { Defects.Lift.bridging = 5; line_opens = 2; contact_opens = 1; stuck_opens = 1 }
        in
        check_int "total" 9 (Defects.Lift.total c);
        check_bool "renders" true
          (String.length (Format.asprintf "%a" Defects.Lift.pp_classes c) > 0));
  ]

(* The quadratic merge LIFT shipped before it grouped by canonical kind,
   kept as an independent oracle: every candidate absorbs the later
   candidates equivalent to it, probabilities summed left to right. *)
let reference_merge (cands : Defects.Lift.cand list) =
  let rec fold acc = function
    | [] -> List.rev acc
    | (c : Defects.Lift.cand) :: rest ->
      let probe =
        Faults.Fault.make ~id:"" ~kind:c.kind ~mechanism:c.mechanism ~prob:c.prob ()
      in
      let same (c' : Defects.Lift.cand) =
        Faults.Fault.equivalent probe
          (Faults.Fault.make ~id:"" ~kind:c'.kind ~mechanism:c'.mechanism ())
      in
      let dups, rest = List.partition same rest in
      let merged =
        List.fold_left
          (fun (c : Defects.Lift.cand) (d : Defects.Lift.cand) ->
            { c with prob = c.prob +. d.prob })
          c dups
      in
      fold (merged :: acc) rest
  in
  fold [] cands

(* Candidate lists drawn from a small electrical alphabet, so kinds
   repeat often: bridges with either net order, breaks with their moved
   terminals shuffled, each under several mechanisms and notes, with
   probabilities spread over many decades so any change in summation
   order shows in the low bits. *)
let merge_qcheck =
  let open QCheck in
  let nets = [ "0"; "vdd"; "a"; "b"; "out" ] in
  let terminals =
    List.concat_map
      (fun device -> List.map (fun port -> { Faults.Fault.device; port }) [ 0; 1; 2 ])
      [ "M1"; "M2"; "M3" ]
  in
  let kind =
    Gen.(
      frequency
        [
          ( 3,
            map2
              (fun net_a net_b -> Faults.Fault.Bridge { net_a; net_b })
              (oneofl nets) (oneofl nets) );
          ( 3,
            map2
              (fun net moved -> Faults.Fault.Break { net; moved })
              (oneofl nets)
              (list_size (int_range 1 3) (oneofl terminals) >>= shuffle_l) );
          (1, map (fun device -> Faults.Fault.Stuck_open { device }) (oneofl [ "M1"; "M2" ]));
        ])
  in
  let cand =
    Gen.(
      map
        (fun (kind, mechanism, (mantissa, decade), note) ->
          {
            Defects.Lift.kind;
            mechanism;
            prob = mantissa *. (10.0 ** float_of_int decade);
            note;
          })
        (quad kind
           (oneofl [ "metal1_short"; "poly_short"; "via_open"; "channel_open" ])
           (pair (float_range 1.0 10.0) (int_range (-16) (-2)))
           (oneofl [ ""; "on metal1"; "cut of poly shape" ])))
  in
  let print cands =
    String.concat "\n"
      (List.map
         (fun (c : Defects.Lift.cand) ->
           Format.asprintf "%a %h"
             Faults.Fault.pp
             (Faults.Fault.make ~id:"" ~kind:c.kind ~mechanism:c.mechanism ~note:c.note ())
             c.prob)
         cands)
  in
  let same_cand (a : Defects.Lift.cand) (f : Faults.Fault.t) =
    a.kind = f.kind && a.mechanism = f.mechanism && a.note = f.note
    && Printf.sprintf "%h" a.prob = Printf.sprintf "%h" f.prob
  in
  [
    Test.make ~name:"merge equals the pairwise reference merge" ~count:500
      (make ~print Gen.(list_size (int_range 0 60) cand))
      (fun cands ->
        let merged =
          (Defects.Lift.finalise { Defects.Lift.default_options with p_min = 0.0 } cands)
            .Defects.Lift.faults
        in
        let expect = reference_merge cands in
        List.length merged = List.length expect
        && List.for_all2 same_cand expect merged
        (* Universe.collapse groups with the same helper: same classes,
           same sums, and class sizes that add up to the input. *)
        &&
        let collapsed =
          Faults.Universe.collapse
            (List.map
               (fun (c : Defects.Lift.cand) ->
                 Faults.Fault.make ~id:"" ~kind:c.kind ~mechanism:c.mechanism
                   ~prob:c.prob ~note:c.note ())
               cands)
        in
        List.length collapsed = List.length expect
        && List.for_all2 (fun e (f, _) -> same_cand e f) expect collapsed
        && List.fold_left (fun n (_, k) -> n + k) 0 collapsed = List.length cands);
  ]
  |> List.map Prop.to_alcotest

let suites =
  [
    ("defects.sites", sites_tests);
    ("defects.lift", lift_tests);
    ("defects.merge", merge_qcheck);
  ]
