exception Singular of int

(* Pivot permutation and forward-substitution buffers, reusable across
   systems of up to the capacity they were made for. *)
type scratch = { piv : int array; y : float array }

let make_scratch n = { piv = Array.make n 0; y = Array.make n 0.0 }

let scratch_capacity s = Array.length s.piv

(* Row [piv.(i)] of the permuted system starts at [piv.(i) * stride];
   each loop hoists that offset out of its inner loop ([rk] for the
   pivot row, [ri] for the row being eliminated or substituted). *)
let factor_solve ~n ~stride scratch a b =
  if Array.length scratch.piv < n || Array.length scratch.y < n then
    invalid_arg "Lu.factor_solve: scratch smaller than the system";
  let piv = scratch.piv and y = scratch.y in
  for i = 0 to n - 1 do
    piv.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* Partial pivot: largest magnitude in column k at or below row k. *)
    let best = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.((piv.(i) * stride) + k) > Float.abs a.((piv.(!best) * stride) + k)
      then best := i
    done;
    if !best <> k then begin
      let t = piv.(k) in
      piv.(k) <- piv.(!best);
      piv.(!best) <- t
    end;
    let rk = piv.(k) * stride in
    let akk = a.(rk + k) in
    (* Report the post-pivot row: the permutation maps column k's failed
       pivot back to a row in the caller's numbering, i.e. an MNA
       unknown the caller can name. *)
    if Float.abs akk < 1e-30 then raise (Singular piv.(k));
    for i = k + 1 to n - 1 do
      let ri = piv.(i) * stride in
      let f = a.(ri + k) /. akk in
      if f <> 0.0 then begin
        a.(ri + k) <- f;
        for j = k + 1 to n - 1 do
          a.(ri + j) <- a.(ri + j) -. (f *. a.(rk + j))
        done
      end
      else a.(ri + k) <- 0.0
    done
  done;
  (* Forward substitution on the permuted rows. *)
  for i = 0 to n - 1 do
    let ri = piv.(i) * stride in
    let s = ref b.(piv.(i)) in
    for j = 0 to i - 1 do
      s := !s -. (a.(ri + j) *. y.(j))
    done;
    y.(i) <- !s
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    let ri = piv.(i) * stride in
    let s = ref y.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.(ri + j) *. b.(j))
    done;
    b.(i) <- !s /. a.(ri + i)
  done

let solve a b =
  let n = Array.length b in
  if Array.length a <> n * n then invalid_arg "Lu.solve: matrix is not n x n";
  factor_solve ~n ~stride:n (make_scratch n) a b

let solve_copy a b =
  let a = Array.copy a and b = Array.copy b in
  solve a b;
  b
