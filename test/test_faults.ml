(* Tests for fault representation, the schematic universe and injection. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf tol = Alcotest.(check (float tol))

let parse s = (Netlist.Parser.parse s).Netlist.Parser.circuit

let divider = parse "div\nV1 in 0 10\nR1 in out 1k\nR2 out 0 1k\n.end\n"

let bridge_fault =
  Faults.Fault.make ~id:"#1"
    ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "0" })
    ~mechanism:"metal1_short" ()

let open_fault =
  Faults.Fault.make ~id:"#2"
    ~kind:(Faults.Fault.Break
             { net = "out"; moved = [ { Faults.Fault.device = "R2"; port = 0 } ] })
    ~mechanism:"metal1_open" ()

let fault_tests =
  [
    Alcotest.test_case "equivalent ignores net order" `Quick (fun () ->
        let f1 =
          Faults.Fault.make ~id:"a"
            ~kind:(Faults.Fault.Bridge { net_a = "x"; net_b = "y" })
            ~mechanism:"m1" ()
        in
        let f2 =
          Faults.Fault.make ~id:"b"
            ~kind:(Faults.Fault.Bridge { net_a = "y"; net_b = "x" })
            ~mechanism:"poly" ~prob:0.5 ()
        in
        check_bool "equiv" true (Faults.Fault.equivalent f1 f2));
    Alcotest.test_case "equivalent ignores terminal order" `Quick (fun () ->
        let t1 = { Faults.Fault.device = "M1"; port = 0 } in
        let t2 = { Faults.Fault.device = "M2"; port = 2 } in
        let f1 =
          Faults.Fault.make ~id:"a"
            ~kind:(Faults.Fault.Break { net = "n"; moved = [ t1; t2 ] })
            ~mechanism:"m1" ()
        in
        let f2 =
          Faults.Fault.make ~id:"b"
            ~kind:(Faults.Fault.Break { net = "n"; moved = [ t2; t1 ] })
            ~mechanism:"m1" ()
        in
        check_bool "equiv" true (Faults.Fault.equivalent f1 f2));
    Alcotest.test_case "distinct faults not equivalent" `Quick (fun () ->
        check_bool "not equiv" false (Faults.Fault.equivalent bridge_fault open_fault));
    Alcotest.test_case "is_local bridge on one device" `Quick (fun () ->
        check_bool "local" true (Faults.Fault.is_local divider bridge_fault);
        let global =
          Faults.Fault.make ~id:"g"
            ~kind:(Faults.Fault.Bridge { net_a = "in"; net_b = "0" })
            ~mechanism:"m1" ()
        in
        (* in-0: no single device spans both nets (V1 does!). *)
        check_bool "V1 spans in-0" true (Faults.Fault.is_local divider global));
    Alcotest.test_case "printing includes id and mechanism" `Quick (fun () ->
        let s = Faults.Fault.to_string bridge_fault in
        check_bool "id" true (String.length s > 0 && s.[0] = '#');
        check_bool "mech" true
          (let rec has i =
             i + 12 <= String.length s && (String.sub s i 12 = "metal1_short" || has (i + 1))
           in
           has 0));
  ]

let universe_tests =
  [
    Alcotest.test_case "VCO universe matches the paper counts" `Quick (fun () ->
        let u = Faults.Universe.build (Vco.Schematic.schematic ()) in
        let opens, shorts = Faults.Universe.count u in
        (* 26 transistors x 3 opens + capacitor open = 79;
           26 x 3 shorts - 6 designed gate-drain diodes + capacitor = 73. *)
        check_int "opens" 79 opens;
        check_int "shorts" 73 shorts;
        check_int "total" 152 (opens + shorts));
    Alcotest.test_case "six diode-connected devices lose their gd short" `Quick (fun () ->
        check_int "diode count" 6 (List.length Vco.Schematic.diode_connected));
    Alcotest.test_case "sources contribute nothing" `Quick (fun () ->
        let c = parse "t\nV1 a 0 5\nI1 a 0 1m\n.end\n" in
        check_int "none" 0 (List.length (Faults.Universe.build c)));
    Alcotest.test_case "rc universe" `Quick (fun () ->
        let c = parse "t\nR1 a b 1k\nC1 b 0 1n\n.end\n" in
        let u = Faults.Universe.build c in
        check_int "2 opens + 2 shorts" 4 (List.length u));
    Alcotest.test_case "unique ids" `Quick (fun () ->
        let u = Faults.Universe.build (Vco.Schematic.schematic ()) in
        let ids = List.map (fun (f : Faults.Fault.t) -> f.id) u in
        check_int "unique" (List.length ids) (List.length (List.sort_uniq compare ids)));
  ]

let collapse_tests =
  [
    Alcotest.test_case "parallel devices collapse their shorts" `Quick (fun () ->
        let c =
          parse
            ("t\nM1 d g s 0 NM\nM2 d g s 0 NM\n.model NM NMOS VTO=1\n.end\n")
        in
        let u = Faults.Universe.build c in
        let collapsed = Faults.Universe.collapse u in
        (* 6 opens stay distinct (different terminals), 6 shorts collapse
           pairwise into 3 classes. *)
        check_int "universe" 12 (List.length u);
        check_int "collapsed" 9 (List.length collapsed);
        check_int "classes of 2" 3
          (List.length (List.filter (fun (_, n) -> n = 2) collapsed)));
    Alcotest.test_case "vco universe collapses meaningfully" `Quick (fun () ->
        let u = Faults.Universe.build (Vco.Schematic.schematic ()) in
        let collapsed = Faults.Universe.collapse u in
        check_bool "smaller" true (List.length collapsed < List.length u);
        check_int "classes cover all" (List.length u)
          (List.fold_left (fun acc (_, n) -> acc + n) 0 collapsed));
    Alcotest.test_case "probabilities sum within a class" `Quick (fun () ->
        let f p =
          Faults.Fault.make ~id:"x" ~kind:(Faults.Fault.Bridge { net_a = "a"; net_b = "b" })
            ~mechanism:"m" ~prob:p ()
        in
        match Faults.Universe.collapse [ f 1.0; f 2.0 ] with
        | [ (g, 2) ] -> checkf 1e-12 "sum" 3.0 g.Faults.Fault.prob
        | _ -> Alcotest.fail "expected one class of 2");
  ]

let resistor_model = Faults.Inject.default_resistor

let inject_tests =
  [
    Alcotest.test_case "bridge resistor model shorts the divider" `Quick (fun () ->
        let faulty = Faults.Inject.apply ~model:resistor_model divider bridge_fault in
        check_int "one extra device" 4 (Netlist.Circuit.device_count faulty);
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        checkf 1e-3 "out shorted" 0.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "bridge source model shorts the divider" `Quick (fun () ->
        let faulty = Faults.Inject.apply ~model:Faults.Inject.Source divider bridge_fault in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        checkf 1e-9 "out shorted" 0.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "bridge on same net is a no-op" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"x"
            ~kind:(Faults.Fault.Bridge { net_a = "out"; net_b = "out" })
            ~mechanism:"m1" ()
        in
        let faulty = Faults.Inject.apply ~model:resistor_model divider f in
        check_int "unchanged" 3 (Netlist.Circuit.device_count faulty));
    Alcotest.test_case "open resistor model floats the divider tap" `Quick (fun () ->
        (* Detach R2's top terminal: out becomes in (no load current). *)
        let faulty = Faults.Inject.apply ~model:resistor_model divider open_fault in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        checkf 0.01 "out pulled up" 10.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "open source model disconnects" `Quick (fun () ->
        let faulty = Faults.Inject.apply ~model:Faults.Inject.Source divider open_fault in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        checkf 0.01 "out pulled up" 10.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "break rewires the named terminal" `Quick (fun () ->
        let faulty = Faults.Inject.apply ~model:resistor_model divider open_fault in
        match Netlist.Circuit.find faulty "R2" with
        | Some (Netlist.Device.R { n1; _ }) ->
          check_bool "moved off out" true (n1 <> "out")
        | _ -> Alcotest.fail "R2 missing");
    Alcotest.test_case "stuck-open kills the channel but keeps gate load" `Quick (fun () ->
        let c =
          parse
            "inv\nVDD vdd 0 5\nVIN in 0 5\nRD vdd out 10k\nM1 out in 0 0 NM W=10u L=1u\n.model NM NMOS VTO=1 KP=60u\n.end\n"
        in
        let f =
          Faults.Fault.make ~id:"s" ~kind:(Faults.Fault.Stuck_open { device = "M1" })
            ~mechanism:"channel_open" ()
        in
        let faulty = Faults.Inject.apply ~model:resistor_model c f in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        (* The transistor never conducts: the output stays high. *)
        checkf 1e-3 "out high" 5.0 (Sim.Engine.voltage sol "out"));
    Alcotest.test_case "stuck-open on non-mos raises" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"s" ~kind:(Faults.Fault.Stuck_open { device = "R1" })
            ~mechanism:"x" ()
        in
        match Faults.Inject.apply ~model:resistor_model divider f with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "break of unknown terminal raises" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"b"
            ~kind:(Faults.Fault.Break
                     { net = "out"; moved = [ { Faults.Fault.device = "R9"; port = 0 } ] })
            ~mechanism:"x" ()
        in
        match Faults.Inject.apply ~model:resistor_model divider f with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "break terminal/net mismatch raises" `Quick (fun () ->
        let f =
          Faults.Fault.make ~id:"b"
            ~kind:(Faults.Fault.Break
                     { net = "in"; moved = [ { Faults.Fault.device = "R2"; port = 0 } ] })
            ~mechanism:"x" ()
        in
        (* R2 port 0 is on "out", not "in". *)
        match Faults.Inject.apply ~model:resistor_model divider f with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    Alcotest.test_case "split node moves several terminals together" `Quick (fun () ->
        let c = parse "t\nV1 n 0 1\nR1 n a 1k\nR2 n b 1k\nR3 a 0 1k\nR4 b 0 1k\n.end\n" in
        let f =
          Faults.Fault.make ~id:"sp"
            ~kind:(Faults.Fault.Break
                     { net = "n";
                       moved =
                         [ { Faults.Fault.device = "R1"; port = 0 };
                           { Faults.Fault.device = "R2"; port = 0 } ] })
            ~mechanism:"m1" ()
        in
        let faulty = Faults.Inject.apply ~model:Faults.Inject.Source c f in
        let sol = Sim.Engine.(Analysis.solution (run faulty Analysis.Op)) in
        (* Both resistor taps are detached from the source. *)
        checkf 1e-3 "a floats low" 0.0 (Sim.Engine.voltage sol "a");
        checkf 1e-3 "b floats low" 0.0 (Sim.Engine.voltage sol "b"));
  ]

(* --- Fault deltas against whole-circuit injection ------------------------ *)

(* Circuits for the delta properties: RC ladders and resistor grids
   (Circuit_synth), and random MOS/capacitor rows of the kind Row_synth
   lays out, half of them carrying devices and a node already named as
   injection names its own (F_BRI, VF_BRI, F_OPEN, IF_OPEN, brkU1), so
   fresh names must step past them. *)
let delta_circuit_gen =
  let open QCheck.Gen in
  let net = oneofl [ "0"; "vdd"; "a"; "b"; "c" ] in
  let mos i =
    map
      (fun (p, (d, g, s), w_um) ->
        let model = if p then Netlist.Device.default_pmos else Netlist.Device.default_nmos in
        Netlist.Device.M
          { name = Printf.sprintf "M%d" i; d; g; s; b = (if p then "vdd" else "0"); model;
            w = float_of_int w_um *. 1e-6; l = 1e-6 })
      (triple bool (triple net net net) (int_range 2 40))
  in
  let row =
    int_range 1 5 >>= fun n ->
    map2
      (fun ms (n1, n2) ->
        Netlist.Circuit.of_devices "row"
          ((Netlist.Device.V { name = "VDD"; np = "vdd"; nn = "0"; wave = Netlist.Wave.Dc 5.0 }
           :: ms)
          @ if n1 = n2 then []
            else [ Netlist.Device.C { name = "C1"; n1; n2; value = 5e-13; ic = None } ]))
      (flatten_l (List.init n mos))
      (pair net net)
  in
  let synth =
    oneof
      [
        map (fun n -> Synth.Circuit_synth.rc_ladder ~sections:n ()) (int_range 1 6);
        map2
          (fun (r, c) caps -> Synth.Circuit_synth.resistor_grid ~caps ~rows:r ~cols:c ())
          (pair (int_range 2 3) (int_range 2 3))
          bool;
      ]
  in
  let taken c =
    let node = List.hd (List.filter (fun n -> n <> "0") (Netlist.Circuit.nodes c)) in
    let r name n2 = Netlist.Device.R { name; n1 = node; n2; value = 1e6 } in
    Netlist.Circuit.of_devices (c.Netlist.Circuit.title ^ " with taken names")
      (Netlist.Circuit.devices c
      @ [ r "F_BRI" "0"; r "F_OPEN" "brkU1"; r "IF_OPEN" "0";
          Netlist.Device.V { name = "VF_BRI"; np = node; nn = "0"; wave = Netlist.Wave.Dc 0.0 } ])
  in
  map2 (fun c collide -> if collide then taken c else c) (oneof [ synth; row ]) bool

(* The faults a case checks: the circuit's universe, a stuck-open per
   transistor (and one on a resistor, which injection refuses), opens
   that move several terminals of one net at once (two ports of one
   device among them when a device sits on the net twice, and one with a
   terminal not on the net), and bridges to one and to two nets the
   circuit lacks. *)
let delta_faults c seed =
  let rng = Random.State.make [| seed |] in
  let mk i kind = Faults.Fault.make ~id:(Printf.sprintf "X%d" i) ~kind ~mechanism:"test" () in
  let devices = Netlist.Circuit.devices c in
  let stuck =
    List.filter_map
      (fun d ->
        match d with
        | Netlist.Device.M { name; _ } | Netlist.Device.R { name; _ } ->
          Some (Faults.Fault.Stuck_open { device = name })
        | _ -> None)
      devices
  in
  let terminals net =
    List.concat_map
      (fun d ->
        List.filteri (fun _ (_, n) -> n = net) (List.mapi (fun p n -> (p, n)) (Netlist.Device.nodes d))
        |> List.map (fun (port, _) -> { Faults.Fault.device = Netlist.Device.name d; port }))
      devices
  in
  let splits =
    List.filter_map
      (fun net ->
        match terminals net with
        | [] | [ _ ] -> None
        | ts ->
          let moved = List.filter (fun _ -> Random.State.bool rng) ts in
          Some (Faults.Fault.Break { net; moved = (if moved = [] then [ List.hd ts ] else moved) }))
      (List.filter (fun n -> n <> "0") (Netlist.Circuit.nodes c))
  in
  let strays =
    match devices with
    | d :: _ ->
      [ Faults.Fault.Break
          { net = "nowhere"; moved = [ { Faults.Fault.device = Netlist.Device.name d; port = 0 } ] } ]
    | [] -> []
  in
  let ghosts =
    [ Faults.Fault.Bridge { net_a = "vdd"; net_b = "ghost1" };
      Faults.Fault.Bridge { net_a = "ghost1"; net_b = "ghost2" } ]
  in
  Faults.Universe.build c @ List.mapi mk (stuck @ splits @ strays @ ghosts)

(* The reference plan: a full plan over [devices] in order, with each
   node and branch at its row in [names], laid out entry by entry as
   the engine's stamp plan documents, then one diagonal per node row. *)
let reference_plan sp names devices =
  let index = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let row n = if n = Netlist.Device.ground then -1 else Hashtbl.find index n in
  let br name = Hashtbl.find index ("I(" ^ name ^ ")") in
  let keys = ref [] and rhs = ref [] in
  let m ?(tran = false) i j = keys := Sim.Sparse.key sp ~tran i j :: !keys in
  let g ?tran i j = m ?tran i i; m ?tran j j; m ?tran i j; m ?tran j i in
  let r i = rhs := (if i < 0 then Sim.Sparse.capacity sp else i) :: !rhs in
  List.iter
    (fun d ->
      match d with
      | Netlist.Device.R { n1; n2; _ } -> g (row n1) (row n2)
      | Netlist.Device.C { n1; n2; _ } ->
        g ~tran:true (row n1) (row n2);
        r (row n1);
        r (row n2)
      | Netlist.Device.L { name; n1; n2; _ } ->
        let i = row n1 and j = row n2 and b = br name in
        m i b; m j b; m b i; m b j; m ~tran:true b b; r b
      | Netlist.Device.V { name; np; nn; _ } ->
        let i = row np and j = row nn and b = br name in
        m i b; m j b; m b i; m b j; r b
      | Netlist.Device.I { np; nn; _ } -> r (row np); r (row nn)
      | Netlist.Device.D { na; nc; _ } ->
        g (row na) (row nc);
        r (row na);
        r (row nc)
      | Netlist.Device.M { d; g = gate; s; _ } ->
        let d = row d and gate = row gate and s = row s in
        g ~tran:true gate s;
        g ~tran:true gate d;
        r gate; r s; r gate; r d;
        m d d; m d gate; m d s; m s d; m s gate; m s s;
        r d; r s)
    devices;
  let pins =
    List.filter
      (fun i -> not (String.length names.(i) > 2 && String.sub names.(i) 0 2 = "I("))
      (List.init (Array.length names) Fun.id)
  in
  List.iter (fun i -> m i i) pins;
  (Array.of_list (List.rev !keys), Array.of_list (List.rev !rhs), Array.of_list pins)

(* The unknowns [c] lacks: its new nodes and new branches. *)
let new_unknowns base c =
  let base_nodes = Netlist.Circuit.nodes base in
  let branches c =
    List.filter_map
      (function
        | Netlist.Device.V { name; _ } | Netlist.Device.L { name; _ } -> Some ("I(" ^ name ^ ")")
        | _ -> None)
      (Netlist.Circuit.devices c)
  in
  ( List.filter (fun n -> not (List.mem n base_nodes)) (Netlist.Circuit.nodes c),
    List.filter (fun b -> not (List.mem b (branches base))) (branches c) )

type delta_seen = {
  kinds : string list; (* the kinds of every fault that injected *)
  collided : bool; (* a fresh name stepped past a taken one *)
  overflowed : bool;
}

(* One case: for each fault, the materialised delta must equal the
   whole-circuit oracle device for device (or both raise [Not_found]),
   and the delta's patch must have the reference plan over the
   materialised devices, its unknowns being the base's followed by the
   materialised circuit's new ones - or overflow, exactly when those
   hold a second new node or branch. *)
let delta_case c source seed =
  let model = if source then Faults.Inject.Source else Faults.Inject.default_resistor in
  let ix = Netlist.Circuit.index c in
  let s = Sim.Engine.Session.create c in
  let base_names = Sim.Engine.Private.unknowns s in
  let nb = Array.length base_names in
  let seen = ref { kinds = []; collided = false; overflowed = false } in
  let check (f : Faults.Fault.t) =
    let attempt g = match g () with x -> Some x | exception Not_found -> None in
    match
      ( attempt (fun () -> Inject_oracle.apply ~model c f),
        attempt (fun () -> Faults.Inject.delta ~model ix f) )
    with
    | None, None -> true
    | Some _, None | None, Some _ -> false
    | Some want, Some delta ->
      let got = Netlist.Circuit.materialise c delta in
      let kind =
        match f.kind with
        | Faults.Fault.Bridge _ -> "bridge"
        | Faults.Fault.Break _ -> "break"
        | Faults.Fault.Stuck_open _ -> "stuck_open"
      in
      let added = List.map Netlist.Device.name delta.Netlist.Circuit.added in
      seen :=
        { !seen with
          kinds = kind :: !seen.kinds;
          collided =
            !seen.collided
            || List.exists (fun n -> List.mem n [ "F_BRI1"; "VF_BRI1"; "F_OPEN1"; "IF_OPEN1" ]) added };
      let nodes, branches = new_unknowns c got in
      Netlist.Circuit.devices got = Netlist.Circuit.devices want
      &&
      match Sim.Engine.Session.patch s delta with
      | exception Sim.Engine.Patch_overflow _ ->
        seen := { !seen with overflowed = true };
        List.length nodes > 1 || List.length branches > 1
      | patch ->
        Sim.Engine.Session.with_patch s patch (fun s ->
            let names = Sim.Engine.Private.unknowns s in
            let keys, rhs, pins = Sim.Engine.Private.plan s in
            let want_keys, want_rhs, want_pins =
              reference_plan
                (Sim.Sparse.create ~capacity:(nb + 2))
                names (Netlist.Circuit.devices got)
            in
            Array.sub names 0 nb = base_names
            && List.sort compare (Array.to_list (Array.sub names nb (Array.length names - nb)))
               = List.sort compare (nodes @ branches)
            && keys = want_keys && rhs = want_rhs && pins = want_pins)
  in
  let ok = List.for_all check (delta_faults c seed) in
  (ok, !seen)

let delta_gen = QCheck.Gen.(triple delta_circuit_gen bool (int_bound 10_000))

let delta_tests =
  Prop.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"a fault delta materialises and plans as whole-circuit injection does"
       (QCheck.make
          ~print:(fun (c, source, seed) ->
            Format.asprintf "source=%b seed=%d@.%a" source seed Netlist.Circuit.pp c)
          delta_gen)
       (fun (c, source, seed) -> fst (delta_case c source seed)))
  :: [
       (* The property passes vacuously if its cases never draw what it is
          about: between them, 40 cases must inject every fault kind under
          both models, step a fresh name past a taken one, and overflow. *)
       Alcotest.test_case "delta cases reach every kind, a taken name and an overflow" `Quick
         (fun () ->
           let cases =
             QCheck.Gen.generate ~rand:(Random.State.make [| Prop.seed |]) ~n:40 delta_gen
           in
           let runs = List.map (fun (c, source, seed) -> (source, delta_case c source seed)) cases in
           check_bool "all agree" true (List.for_all (fun (_, (ok, _)) -> ok) runs);
           List.iter
             (fun source ->
               List.iter
                 (fun kind ->
                   check_bool
                     (Printf.sprintf "%s drawn (source model %b)" kind source)
                     true
                     (List.exists
                        (fun (src, (_, seen)) -> src = source && List.mem kind seen.kinds)
                        runs))
                 [ "bridge"; "break"; "stuck_open" ])
             [ false; true ];
           check_bool "a fresh name steps past a taken one" true
             (List.exists (fun (_, (_, seen)) -> seen.collided) runs);
           check_bool "some delta overflows" true
             (List.exists (fun (_, (_, seen)) -> seen.overflowed) runs));
     ]

let suites =
  [
    ("faults.fault", fault_tests);
    ("faults.universe", universe_tests);
    ("faults.collapse", collapse_tests);
    ("faults.inject", inject_tests);
    ("faults.delta", delta_tests);
  ]
