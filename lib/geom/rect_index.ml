(* Buckets keyed by grid cell; a rectangle sits in every cell it
   overlaps, so a query merges the buckets of its own cells. *)
type t = {
  origin : Rect.t;
  cell : int;
  buckets : (int * int, int list ref) Hashtbl.t;
}

let cells t (r : Rect.t) =
  ( (r.Rect.x0 - t.origin.Rect.x0) / t.cell,
    (r.Rect.x1 - t.origin.Rect.x0) / t.cell,
    (r.Rect.y0 - t.origin.Rect.y0) / t.cell,
    (r.Rect.y1 - t.origin.Rect.y0) / t.cell )

let build (rects : Rect.t array) =
  let n = Array.length rects in
  let origin =
    if n = 0 then Rect.make 0 0 1 1
    else Array.fold_left Rect.hull rects.(0) rects
  in
  let cell =
    if n = 0 then 1
    else
      max 1
        (Array.fold_left
           (fun acc r -> acc + max (Rect.width r) (Rect.height r))
           0 rects
        / n)
  in
  let t = { origin; cell; buckets = Hashtbl.create 256 } in
  Array.iteri
    (fun i r ->
      let cx0, cx1, cy0, cy1 = cells t r in
      for cx = cx0 to cx1 do
        for cy = cy0 to cy1 do
          match Hashtbl.find_opt t.buckets (cx, cy) with
          | Some l -> l := i :: !l
          | None -> Hashtbl.add t.buckets (cx, cy) (ref [ i ])
        done
      done)
    rects;
  t

(* Ascending indices of rectangles near [r] (everything touching [r]
   is included; farther rectangles may be too).  The scan is clamped
   to the cells the indexed rectangles span, so a query far larger
   than a cell, or an empty index, costs nothing extra. *)
let near t (r : Rect.t) =
  let cx0, cx1, cy0, cy1 = cells t (Rect.expand r 1) in
  let _, nx, _, ny = cells t t.origin in
  let acc = ref [] in
  for cx = max 0 cx0 to min nx cx1 do
    for cy = max 0 cy0 to min ny cy1 do
      match Hashtbl.find_opt t.buckets (cx, cy) with
      | Some l -> acc := !l @ !acc
      | None -> ()
    done
  done;
  List.sort_uniq Int.compare !acc
