(* Tests for the geometry kernel. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rect = Geom.Rect.make

let interval_tests =
  let open Geom.Interval in
  [
    Alcotest.test_case "make normalises" `Quick (fun () ->
        check_bool "equal" true (equal (make 5 1) (make 1 5)));
    Alcotest.test_case "length" `Quick (fun () -> check_int "len" 4 (length (make 1 5)));
    Alcotest.test_case "overlap positive" `Quick (fun () ->
        check_int "ovl" 2 (overlap (make 0 4) (make 2 9)));
    Alcotest.test_case "overlap disjoint" `Quick (fun () ->
        check_int "ovl" 0 (overlap (make 0 2) (make 5 9)));
    Alcotest.test_case "overlap touching" `Quick (fun () ->
        check_int "ovl" 0 (overlap (make 0 2) (make 2 4)));
    Alcotest.test_case "gap disjoint" `Quick (fun () ->
        check_int "gap" 3 (gap (make 0 2) (make 5 9)));
    Alcotest.test_case "gap overlapping" `Quick (fun () ->
        check_int "gap" 0 (gap (make 0 4) (make 2 9)));
    Alcotest.test_case "contains" `Quick (fun () ->
        check_bool "in" true (contains (make 0 4) 4);
        check_bool "out" false (contains (make 0 4) 5));
    Alcotest.test_case "hull" `Quick (fun () ->
        check_bool "hull" true (equal (hull (make 0 2) (make 5 9)) (make 0 9)));
  ]

let rect_tests =
  let open Geom.Rect in
  [
    Alcotest.test_case "make normalises corners" `Quick (fun () ->
        check_bool "eq" true (equal (rect 5 7 1 2) (rect 1 2 5 7)));
    Alcotest.test_case "area, width, height" `Quick (fun () ->
        let r = rect 1 2 5 9 in
        check_int "w" 4 (width r);
        check_int "h" 7 (height r);
        check_int "a" 28 (area r));
    Alcotest.test_case "of_center" `Quick (fun () ->
        let r = of_center ~cx:10 ~cy:20 ~w:4 ~h:6 in
        check_bool "eq" true (equal r (rect 8 17 12 23)));
    Alcotest.test_case "inter overlapping" `Quick (fun () ->
        match inter (rect 0 0 4 4) (rect 2 2 8 8) with
        | Some i -> check_bool "eq" true (equal i (rect 2 2 4 4))
        | None -> Alcotest.fail "expected intersection");
    Alcotest.test_case "inter disjoint" `Quick (fun () ->
        check_bool "none" true (inter (rect 0 0 1 1) (rect 5 5 6 6) = None));
    Alcotest.test_case "touching is not overlapping" `Quick (fun () ->
        let a = rect 0 0 4 4 and b = rect 4 0 8 4 in
        check_bool "overlaps" false (overlaps a b);
        check_bool "touches" true (touches a b));
    Alcotest.test_case "expand grows all sides" `Quick (fun () ->
        check_bool "eq" true (equal (expand (rect 2 2 4 4) 1) (rect 1 1 5 5)));
    Alcotest.test_case "expand over-shrink degenerates" `Quick (fun () ->
        let r = expand (rect 0 0 4 4) (-10) in
        check_bool "degenerate" true (is_degenerate r));
    Alcotest.test_case "gap" `Quick (fun () ->
        let dx, dy = gap (rect 0 0 2 2) (rect 5 0 7 2) in
        check_int "dx" 3 dx;
        check_int "dy" 0 dy);
    Alcotest.test_case "facing horizontal" `Quick (fun () ->
        match facing (rect 0 0 2 10) (rect 5 4 7 20) with
        | Some (s, l) ->
          check_int "spacing" 3 s;
          check_int "length" 6 l
        | None -> Alcotest.fail "expected facing pair");
    Alcotest.test_case "facing diagonal is none" `Quick (fun () ->
        check_bool "none" true (facing (rect 0 0 2 2) (rect 5 5 7 7) = None));
    Alcotest.test_case "facing overlapping is none" `Quick (fun () ->
        check_bool "none" true (facing (rect 0 0 4 4) (rect 2 2 8 8) = None));
    Alcotest.test_case "subtract disjoint" `Quick (fun () ->
        check_bool "same" true (subtract (rect 0 0 2 2) (rect 5 5 6 6) = [ rect 0 0 2 2 ]));
    Alcotest.test_case "subtract covering" `Quick (fun () ->
        check_bool "empty" true (subtract (rect 1 1 2 2) (rect 0 0 4 4) = []));
    Alcotest.test_case "subtract middle strip splits" `Quick (fun () ->
        (* Vertical cut through the middle of a horizontal bar. *)
        let pieces = subtract (rect 0 0 10 2) (rect 4 (-1) 6 3) in
        check_int "pieces" 2 (List.length pieces);
        let total = List.fold_left (fun acc r -> acc + area r) 0 pieces in
        check_int "area" (20 - 4) total);
    Alcotest.test_case "subtract hole punches 4 pieces" `Quick (fun () ->
        let pieces = subtract (rect 0 0 10 10) (rect 4 4 6 6) in
        check_int "pieces" 4 (List.length pieces);
        let total = List.fold_left (fun acc r -> acc + area r) 0 pieces in
        check_int "area" 96 total);
  ]

let union_find_tests =
  let open Geom.Union_find in
  [
    Alcotest.test_case "singletons" `Quick (fun () ->
        let t = create 4 in
        check_int "count" 4 (count t);
        check_bool "not same" false (same t 0 1));
    Alcotest.test_case "union merges" `Quick (fun () ->
        let t = create 4 in
        ignore (union t 0 1);
        ignore (union t 2 3);
        check_bool "0~1" true (same t 0 1);
        check_bool "0!~2" false (same t 0 2);
        check_int "count" 2 (count t);
        ignore (union t 1 3);
        check_int "count" 1 (count t));
    Alcotest.test_case "groups ordered" `Quick (fun () ->
        let t = create 5 in
        ignore (union t 4 1);
        ignore (union t 3 2);
        Alcotest.(check (list (list int)))
          "groups" [ [ 0 ]; [ 1; 4 ]; [ 2; 3 ] ] (groups t));
  ]

let rect_set_tests =
  let open Geom.Rect_set in
  [
    Alcotest.test_case "union area no overlap" `Quick (fun () ->
        check_int "area" 8 (union_area [ rect 0 0 2 2; rect 4 0 6 2 ]));
    Alcotest.test_case "union area with overlap counted once" `Quick (fun () ->
        check_int "area" 28 (union_area [ rect 0 0 4 4; rect 2 2 6 6 ]));
    Alcotest.test_case "union area empty" `Quick (fun () -> check_int "area" 0 (union_area []));
    Alcotest.test_case "subtract_all" `Quick (fun () ->
        let remain = subtract_all [ rect 0 0 10 2 ] [ rect 2 0 4 2; rect 6 0 8 2 ] in
        let total = List.fold_left (fun acc r -> acc + Geom.Rect.area r) 0 remain in
        check_int "area" 12 total);
    Alcotest.test_case "components split" `Quick (fun () ->
        let comp, n =
          components [| rect 0 0 2 2; rect 2 0 4 2; rect 10 10 12 12 |]
        in
        check_int "n" 2 n;
        check_bool "0~1" true (comp.(0) = comp.(1));
        check_bool "0!~2" false (comp.(0) = comp.(2)));
    Alcotest.test_case "close_pairs finds facing pair" `Quick (fun () ->
        let pairs = close_pairs ~within:5 [| rect 0 0 2 10; rect 5 0 7 10 |] in
        check_bool "pairs" true (pairs = [ (0, 1, 3, 10) ]));
    Alcotest.test_case "close_pairs respects distance bound" `Quick (fun () ->
        let pairs = close_pairs ~within:2 [| rect 0 0 2 10; rect 5 0 7 10 |] in
        check_int "none" 0 (List.length pairs));
    Alcotest.test_case "bounding_box" `Quick (fun () ->
        check_bool "eq" true
          (Geom.Rect.equal
             (bounding_box [ rect 0 0 1 1; rect 5 7 9 8 ])
             (rect 0 0 9 8)));
    (* Sweep-line edge cases: abutting, degenerate, duplicated and
       singleton inputs must not double-count or drop area. *)
    Alcotest.test_case "union area touching not overlapping" `Quick (fun () ->
        (* Abutting along a shared edge: zero overlap, exact sum. *)
        check_int "area" 8 (union_area [ rect 0 0 2 2; rect 2 0 4 2 ]);
        check_int "area" 8 (union_area [ rect 0 0 2 2; rect 0 2 2 4 ]);
        (* Corner-touching only. *)
        check_int "area" 8 (union_area [ rect 0 0 2 2; rect 2 2 4 4 ]));
    Alcotest.test_case "union area degenerate rects" `Quick (fun () ->
        (* Zero-width and zero-height rectangles contribute nothing. *)
        check_int "zero width" 0 (union_area [ rect 3 0 3 10 ]);
        check_int "zero height" 0 (union_area [ rect 0 3 10 3 ]);
        check_int "mixed" 4 (union_area [ rect 0 0 2 2; rect 5 0 5 9; rect 0 5 9 5 ]));
    Alcotest.test_case "union area duplicates counted once" `Quick (fun () ->
        let r = rect 1 1 4 3 in
        check_int "dups" (Geom.Rect.area r) (union_area [ r; r; r ]));
    Alcotest.test_case "union area single rect" `Quick (fun () ->
        check_int "single" 6 (union_area [ rect (-1) (-2) 1 1 ]));
    Alcotest.test_case "union_area_in clips first" `Quick (fun () ->
        let rs = [ rect 0 0 4 4; rect 2 2 6 6 ] in
        (* Full window reproduces union_area; a quadrant window sees
           only the clipped parts; a disjoint window sees nothing. *)
        check_int "full" (union_area rs) (union_area_in ~clip:(rect 0 0 6 6) rs);
        check_int "quadrant" 9 (union_area_in ~clip:(rect 3 3 6 6) rs);
        check_int "outside" 0 (union_area_in ~clip:(rect 10 10 20 20) rs));
    Alcotest.test_case "union_area_in partition sums to union_area" `Quick
      (fun () ->
        let rs = [ rect 0 0 4 4; rect 2 2 6 6; rect 5 0 7 2; rect 1 5 3 7 ] in
        let total = ref 0 in
        for cx = 0 to 3 do
          for cy = 0 to 3 do
            total :=
              !total
              + union_area_in
                  ~clip:(rect (cx * 2) (cy * 2) ((cx + 1) * 2) ((cy + 1) * 2))
                  rs
          done
        done;
        check_int "partition" (union_area rs) !total);
    Alcotest.test_case "touching_pairs abutting edge" `Quick (fun () ->
        (* Shares an edge: touching, and reported exactly once, sorted. *)
        check_bool "edge" true
          (touching_pairs [| rect 0 0 2 2; rect 2 0 4 2 |] = [ (0, 1) ]);
        (* Corner contact still counts as touching. *)
        check_bool "corner" true
          (touching_pairs [| rect 0 0 2 2; rect 2 2 4 4 |] = [ (0, 1) ]);
        (* A 1-unit gap does not. *)
        check_int "gap" 0
          (List.length (touching_pairs [| rect 0 0 2 2; rect 3 0 5 2 |])));
    Alcotest.test_case "touching_pairs duplicates and singleton" `Quick
      (fun () ->
        let r = rect 0 0 2 2 in
        check_bool "dups" true (touching_pairs [| r; r |] = [ (0, 1) ]);
        check_int "single" 0 (List.length (touching_pairs [| r |]));
        check_int "empty" 0 (List.length (touching_pairs [||])));
    Alcotest.test_case "close_pairs excludes touching" `Quick (fun () ->
        (* Abutting conductors are connected, not a bridge site. *)
        check_int "abutting" 0
          (List.length (close_pairs ~within:5 [| rect 0 0 2 10; rect 2 0 4 10 |]));
        (* Spacing exactly at the bound is included... *)
        check_bool "at bound" true
          (close_pairs ~within:3 [| rect 0 0 2 10; rect 5 0 7 10 |]
          = [ (0, 1, 3, 10) ]);
        (* ...one past it is not. *)
        check_int "past bound" 0
          (List.length (close_pairs ~within:2 [| rect 0 0 2 10; rect 5 0 7 10 |])));
    Alcotest.test_case "close_pairs output sorted ascending" `Quick (fun () ->
        (* The documented determinism contract: pairs come out sorted by
           (i, j) whatever the bucket traversal order was. *)
        let rs =
          [|
            rect 0 0 2 10; rect 5 0 7 10; rect 10 0 12 10; rect 15 0 17 10;
          |]
        in
        let pairs = close_pairs ~within:3 rs in
        check_bool "sorted" true (List.sort compare pairs = pairs);
        check_int "count" 3 (List.length pairs));
  ]

let ca_tests =
  let open Geom.Critical_area in
  let checkf = Alcotest.(check (float 1e-6)) in
  [
    Alcotest.test_case "short_area below spacing is 0" `Quick (fun () ->
        checkf "zero" 0.0 (short_area ~spacing:1000 ~length:5000 800.0));
    Alcotest.test_case "short_area linear above spacing" `Quick (fun () ->
        checkf "lin" (5000.0 *. 500.0) (short_area ~spacing:1000 ~length:5000 1500.0));
    Alcotest.test_case "cubic pdf normalised" `Quick (fun () ->
        let d = Cubic { x_min = 1000.0 } in
        let mass = weighted d (fun _ -> 1.0) in
        Alcotest.(check (float 1e-3)) "mass" 1.0 mass);
    Alcotest.test_case "uniform pdf normalised" `Quick (fun () ->
        let d = Uniform { x_min = 1000.0; x_max = 5000.0 } in
        Alcotest.(check (float 1e-6)) "mass" 1.0 (weighted d (fun _ -> 1.0)));
    Alcotest.test_case "closed form matches numeric (short)" `Quick (fun () ->
        let d = Cubic { x_min = 1000.0 } in
        let exact = weighted_short_cubic ~x_min:1000.0 ~spacing:2000 ~length:7000 () in
        let numeric = weighted d (short_area ~spacing:2000 ~length:7000) in
        Alcotest.(check (float 1.0)) "match" exact numeric);
    Alcotest.test_case "closed form matches numeric (open)" `Quick (fun () ->
        let d = Cubic { x_min = 1000.0 } in
        let exact = weighted_open_cubic ~x_min:1000.0 ~width:1500 ~length:9000 () in
        let numeric = weighted d (open_area ~width:1500 ~length:9000) in
        Alcotest.(check (float 1.0)) "match" exact numeric);
    Alcotest.test_case "tighter spacing has larger weighted CA" `Quick (fun () ->
        let ca s = weighted_short_cubic ~x_min:1000.0 ~spacing:s ~length:5000 () in
        check_bool "monotone" true (ca 1500 > ca 3000));
    Alcotest.test_case "nm2_to_cm2" `Quick (fun () ->
        checkf "conv" 1.0 (nm2_to_cm2 1e14));
  ]

(* Property tests on the geometric primitives. *)
let qcheck_tests =
  let open QCheck in
  let coord = Gen.int_range (-50) 50 in
  let rect_gen =
    Gen.map (fun (a, b, c, d) -> rect a b c d) (Gen.quad coord coord coord coord)
  in
  let arb_rect = make ~print:Geom.Rect.to_string rect_gen in
  let arb_pair = pair arb_rect arb_rect in
  [
    Test.make ~name:"subtract preserves area" ~count:500 arb_pair (fun (a, b) ->
        let pieces = Geom.Rect.subtract a b in
        let inter_area =
          match Geom.Rect.inter a b with
          | Some i -> Geom.Rect.area i
          | None -> 0
        in
        List.fold_left (fun acc r -> acc + Geom.Rect.area r) 0 pieces
        = Geom.Rect.area a - inter_area);
    Test.make ~name:"subtract pieces are disjoint from cut" ~count:500 arb_pair
      (fun (a, b) ->
        List.for_all (fun p -> not (Geom.Rect.overlaps p b)) (Geom.Rect.subtract a b));
    Test.make ~name:"inter is commutative" ~count:500 arb_pair (fun (a, b) ->
        Geom.Rect.inter a b = Geom.Rect.inter b a);
    Test.make ~name:"hull contains both" ~count:500 arb_pair (fun (a, b) ->
        let h = Geom.Rect.hull a b in
        Geom.Rect.contains h a && Geom.Rect.contains h b);
    Test.make ~name:"union_area bounded by sum and parts" ~count:200
      (list_of_size (Gen.int_range 0 8) arb_rect) (fun rs ->
        let u = Geom.Rect_set.union_area rs in
        let sum = List.fold_left (fun acc r -> acc + Geom.Rect.area r) 0 rs in
        u <= sum && List.for_all (fun r -> u >= Geom.Rect.area r) rs);
    Test.make ~name:"facing symmetric" ~count:500 arb_pair (fun (a, b) ->
        Geom.Rect.facing a b = Geom.Rect.facing b a);
  ]
  |> List.map Prop.to_alcotest

let suites =
  [
    ("geom.interval", interval_tests);
    ("geom.rect", rect_tests);
    ("geom.union_find", union_find_tests);
    ("geom.rect_set", rect_set_tests);
    ("geom.critical_area", ca_tests);
    ("geom.properties", qcheck_tests);
  ]
