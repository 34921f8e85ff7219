(* Order statistics for benchmark samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (rank p * (n - 1)): the
   percentile reported for latencies. *)
let percentile p xs =
  match sorted xs with
  | [||] -> Float.nan
  | a ->
    let r = p *. float_of_int (Array.length a - 1) in
    let i = truncate r in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((r -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = percentile 0.5 xs

(* First and third quartiles by the "exclusive" method (Python's
   statistics.quantiles default, rank p * (n + 1)), so spreads printed
   here agree with the ones an external reader computes from the same
   values.  Fewer than two values have no spread. *)
let quartiles xs =
  match sorted xs with
  | [||] -> (Float.nan, Float.nan)
  | [| x |] -> (x, x)
  | a ->
    let n = Array.length a in
    let q p =
      let r = p *. float_of_int (n + 1) in
      let i = truncate r in
      if i < 1 then a.(0)
      else if i >= n then a.(n - 1)
      else a.(i - 1) +. ((r -. float_of_int i) *. (a.(i) -. a.(i - 1)))
    in
    (q 0.25, q 0.75)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
