(* The linear solver of the MNA core: sparse LU.

   The matrix lives in two representations.  While the nonzero pattern is
   still being discovered ("building" mode) coordinates accumulate in a
   hashtable keyed by (row, col).  Compilation turns the union of every
   coordinate ever reserved into a CSC structure (columns sorted, one
   slot per coordinate), and from then on a stamp plan writes straight
   into value slots it resolved once per compilation - an MNA topology
   stamps the same coordinates on every Newton iteration, so the compiled
   path is the steady state.  A plan that reserves coordinates outside the
   pattern (a fault patch touching new coordinates, the first transient
   step adding companion-model entries to a DC-only pattern) decompiles
   back to the hashtable, and the grown union is re-compiled before that
   stamp; the pattern only ever grows, so a session settles after a
   handful of rebuilds.  A generation counter changes with every
   decompile and compile, which is how a plan's targets know their slots
   are stale.

   Factorisation is Gilbert-Peierls left-looking LU with threshold
   partial pivoting (after CSparse's cs_lu).  The first ("full")
   factorisation computes the pattern of each factor column by a DFS
   reachability pass and chooses pivots; every later solve replays the
   stored pattern and pivot order numerically ("refactorisation") with no
   graph traversal and no pivot search - the payoff the whole backend
   exists for.  A refactorisation whose reused pivot degenerates falls
   back to one full factorisation with fresh pivoting.

   A solve whose values equal, bit for bit, those of the refactorisation
   that produced the stored factors skips factorising altogether
   ("reuse"): refactorising them again would recompute the same factors
   to the last bit, with the same pattern, pivots and operation order.
   A linear circuit's matrix depends only on the step size, so the
   confirming Newton iteration of each step, and every step at an
   unchanged h, reuse.  Only a refactorisation arms the rule: after a
   full factorisation the next solve refactorises even on equal values,
   so a reused factor is always one [refactor] would recompute.

   Columns are pre-ordered by a greedy minimum-degree pass over the
   symmetrised pattern (static fill reduction); rows are permuted by
   pivoting only.  A batch session fixes the order once, over its base
   circuit's pattern ([order]): later compilations of the grown pattern
   keep it and place the overlay columns after it, so no chunk of
   faults reorders and the order does not depend on which faults
   shared the session.

   Batch sessions solve at several active sizes (the nominal topology,
   then +1/+2 overlay rows per fault patch).  Rather than re-running the
   symbolic analysis whenever the active size shrinks, the factorisation
   always covers [pat_n] (the largest size seen): rows in
   [n, pat_n) are padded with a unit diagonal and a zero right-hand
   side, which leaves the active unknowns' solution bit-identical while
   keeping one pattern, one ordering and one pivot sequence alive across
   the whole fault list. *)

exception Singular of int
(* Original (pre-ordering) index of the unknown whose pivot vanished. *)

let pivot_eps = 1e-30

(* Prefer the diagonal when it is within [pivot_tol] of the column
   maximum: diagonal pivots keep the pivot order stable across
   refactorisations of the same topology. *)
let pivot_tol = 1e-3

(* A refactorisation keeps a stored pivot while it stays within another
   factor [pivot_tol] of its column's largest entry, so no multiplier
   exceeds 1e6.  Tighter, a campaign's variants would keep overturning
   each other's pivot orders (at [pivot_tol] itself the paper's VCO
   universe repivots 7,189 times instead of 253); looser, a fault can
   leave a stored pivot tiny but nonzero (a 10 mOhm bridge beside it, or
   a 0 V bridge's branch row, whose overlay diagonal was padded to 1
   when the pivots were chosen) and the solve loses every digit. *)
let refactor_tol = pivot_tol *. pivot_tol

type t = {
  cap : int;
  b : float array; (* right-hand side, overwritten with the solution;
                      index [cap] is the ground dump *)
  mutable n : int; (* active unknowns of the current stamp *)
  mutable pat_n : int; (* factorised order: max [n] ever seen *)
  (* --- compiled matrix: CSC over the accumulated pattern --- *)
  mutable colptr : int array; (* length pat_n + 1 *)
  mutable rowind : int array; (* rows, sorted within each column *)
  mutable vals : float array; (* one past the last slot: the ground dump *)
  mutable diag_slot : int array; (* slot of (r, r) per row, for padding *)
  mutable compiled : bool;
  mutable gen : int; (* bumped by every compile and decompile *)
  building : (int, float) Hashtbl.t; (* key = row * cap + col *)
  (* --- factorisation --- *)
  mutable q : int array; (* column order: factor col k holds A(:, q.(k)) *)
  mutable order : int array; (* the fixed order of the leading columns, if any *)
  mutable pinv : int array; (* row -> pivot position *)
  mutable lp : int array; (* L column pointers, length cap + 1 *)
  mutable li : int array;
  mutable lx : float array;
  mutable up : int array;
  mutable ui : int array;
  mutable ux : float array;
  mutable have_factor : bool;
  (* --- reuse: while [snap_valid], the factors came from [refactor] on
     the values in [snap].  Every path that drops the factors (compile,
     decompile, [Singular]) goes through [full_factor], which clears
     it. --- *)
  mutable snap : float array; (* length nnz: no ground dump *)
  mutable snap_valid : bool;
  (* --- workspace (sized cap once) --- *)
  x : float array;
  flag : int array;
  rstack : int array;
  pstack : int array;
  xi : int array;
  work : float array;
  (* --- counters (cumulative; [flush_stats] reports deltas) --- *)
  mutable stat_full : int;
  mutable stat_refactor : int;
  mutable stat_symbolic : int;
  mutable stat_repivot : int;
  mutable stat_reuse : int;
  mutable r_full : int; (* the counters at the last flush *)
  mutable r_refactor : int;
  mutable r_symbolic : int;
  mutable r_repivot : int;
  mutable r_reuse : int;
}

let create ~capacity =
  let cap = max capacity 1 in
  {
    cap;
    b = Array.make (cap + 1) 0.0;
    n = 0;
    pat_n = 0;
    colptr = [| 0 |];
    rowind = [||];
    vals = [| 0.0 |];
    diag_slot = [||];
    compiled = false;
    gen = 0;
    building = Hashtbl.create 256;
    q = [||];
    order = [||];
    pinv = Array.make cap (-1);
    lp = Array.make (cap + 1) 0;
    li = [||];
    lx = [||];
    up = Array.make (cap + 1) 0;
    ui = [||];
    ux = [||];
    have_factor = false;
    snap = [||];
    snap_valid = false;
    x = Array.make cap 0.0;
    flag = Array.make cap (-1);
    rstack = Array.make cap 0;
    pstack = Array.make cap 0;
    xi = Array.make cap 0;
    work = Array.make cap 0.0;
    stat_full = 0;
    stat_refactor = 0;
    stat_symbolic = 0;
    stat_repivot = 0;
    stat_reuse = 0;
    r_full = 0;
    r_refactor = 0;
    r_symbolic = 0;
    r_repivot = 0;
    r_reuse = 0;
  }

let capacity t = t.cap

let rhs t = t.b

let values t = t.vals

let nnz t = if t.compiled then Array.length t.rowind else Hashtbl.length t.building

let factor_nnz t = if t.have_factor then t.lp.(t.pat_n) + t.up.(t.pat_n) else 0

type stats = { full : int; refactor : int; reuse : int; symbolic : int; repivot : int }

let stats t =
  {
    full = t.stat_full;
    refactor = t.stat_refactor;
    reuse = t.stat_reuse;
    symbolic = t.stat_symbolic;
    repivot = t.stat_repivot;
  }

(* --- stamping ---------------------------------------------------------- *)

let decompile t =
  (* Dump every compiled slot (pattern and current values) back into the
     hashtable so the union pattern survives the rebuild. *)
  for j = 0 to t.pat_n - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      Hashtbl.replace t.building ((t.rowind.(p) * t.cap) + j) t.vals.(p)
    done
  done;
  t.compiled <- false;
  t.gen <- t.gen + 1;
  t.have_factor <- false

let open_pass t ~n =
  if n > t.cap then invalid_arg "Sparse.begin_stamp: n exceeds capacity";
  t.n <- n;
  if n > t.pat_n then begin
    (* New rows join the pattern; force a rebuild so they get diagonal
       slots and a place in the ordering. *)
    if t.compiled then decompile t;
    t.pat_n <- n
  end;
  Array.fill t.b 0 t.pat_n 0.0;
  if t.compiled then Array.fill t.vals 0 (Array.length t.vals) 0.0
  else
    (* Zero the values but keep the keys: the accumulated pattern must
       survive from one stamp to the next. *)
    Hashtbl.filter_map_inplace (fun _ _ -> Some 0.0) t.building

(* Binary search for row [i] within column [j] of the compiled pattern;
   returns the slot or -1. *)
let find_slot t i j =
  let lo = ref t.colptr.(j) and hi = ref (t.colptr.(j + 1) - 1) in
  let slot = ref (-1) in
  while !slot < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = t.rowind.(mid) in
    if r = i then slot := mid else if r < i then lo := mid + 1 else hi := mid - 1
  done;
  !slot

(* Coordinate keys: row * cap + col; -1 is ground (never stored); a
   key [k] that only transient passes stamp (an "extra") is kept as
   [-2 - k]. *)
let key t ?(tran = false) i j =
  if i < 0 || j < 0 then -1
  else
    let k = (i * t.cap) + j in
    if tran then -2 - k else k

let decode ~extras c = if c >= 0 then c else if c <= -2 && extras then -2 - c else -1

let mem t k = t.compiled && find_slot t (k / t.cap) (k mod t.cap) >= 0

(* A key outside the compiled pattern sends the matrix back to building
   mode.  Right after [open_pass] every kept value is +0.0, and a key
   first seen here starts at -0.0, the exact additive identity: the
   stamp that follows then leaves every cell with the same bits as
   accumulating that stamp in the hashtable would (a new cell takes its
   first addend as is, an old one adds it to +0.0). *)
let reserve t ~extras keys =
  let n = Array.length keys in
  let rec inside p =
    p >= n
    ||
    let k = decode ~extras keys.(p) in
    (k < 0 || mem t k) && inside (p + 1)
  in
  if not (t.compiled && inside 0) then begin
    if t.compiled then decompile t;
    Array.iter
      (fun c ->
        let k = decode ~extras c in
        if k >= 0 && not (Hashtbl.mem t.building k) then Hashtbl.add t.building k (-0.0))
      keys
  end

let get t i j =
  if t.compiled && i >= 0 && j >= 0 then
    match find_slot t i j with -1 -> None | p -> Some t.vals.(p)
  else None

(* --- pattern compilation ----------------------------------------------- *)

(* Greedy minimum-degree ordering of the symmetrised pattern.  The
   quotient-graph refinements of real AMD are overkill here: this runs
   once per topology, on systems of at most a few thousand unknowns. *)
let min_degree_order m colptr rowind =
  let adj = Array.init m (fun _ -> Hashtbl.create 8) in
  for j = 0 to m - 1 do
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(p) in
      if i <> j && i < m then begin
        Hashtbl.replace adj.(i) j ();
        Hashtbl.replace adj.(j) i ()
      end
    done
  done;
  let alive = Array.make m true in
  let order = Array.make m 0 in
  for k = 0 to m - 1 do
    let best = ref (-1) and best_d = ref max_int in
    for v = 0 to m - 1 do
      if alive.(v) then begin
        let d = Hashtbl.length adj.(v) in
        if d < !best_d then begin
          best := v;
          best_d := d
        end
      end
    done;
    let v = !best in
    order.(k) <- v;
    alive.(v) <- false;
    (* Connect the eliminated vertex's neighbours into a clique. *)
    let nbrs = Hashtbl.fold (fun u () acc -> if alive.(u) then u :: acc else acc) adj.(v) [] in
    List.iter
      (fun u ->
        Hashtbl.remove adj.(u) v;
        List.iter
          (fun w -> if u <> w then Hashtbl.replace adj.(u) w ())
          nbrs)
      nbrs;
    Hashtbl.reset adj.(v)
  done;
  order

(* The CSC structure of [keys] (row-major keys, ascending) over [m]
   columns: column pointers, row indices, and the slot of each key.  The
   keys are scattered in order, which leaves each column's rows
   ascending. *)
let csc ~cap m keys =
  let colptr = Array.make (m + 1) 0 in
  Array.iter (fun key -> colptr.((key mod cap) + 1) <- colptr.((key mod cap) + 1) + 1) keys;
  for j = 0 to m - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  let fill = Array.sub colptr 0 m and rowind = Array.make (Array.length keys) 0 in
  let slot =
    Array.map
      (fun key ->
        let j = key mod cap in
        let p = fill.(j) in
        rowind.(p) <- key / cap;
        fill.(j) <- p + 1;
        p)
      keys
  in
  (colptr, rowind, slot)

let compile t =
  let m = t.pat_n in
  (* Every row keeps a diagonal slot: branch rows get one even when no
     device stamps it (an explicit zero costs one slot and lets inactive
     overlay rows be padded with a unit pivot). *)
  for r = 0 to m - 1 do
    let key = (r * t.cap) + r in
    if not (Hashtbl.mem t.building key) then Hashtbl.add t.building key 0.0
  done;
  let keys = Array.make (Hashtbl.length t.building) 0 in
  ignore (Hashtbl.fold (fun key _ p -> keys.(p) <- key; p + 1) t.building 0);
  Array.sort Int.compare keys;
  let colptr, rowind, slot = csc ~cap:t.cap m keys in
  let nz = Array.length keys in
  let vals = Array.make (nz + 1) 0.0 in
  let diag_slot = Array.make m (-1) in
  Array.iteri
    (fun q key ->
      vals.(slot.(q)) <- Hashtbl.find t.building key;
      if key / t.cap = key mod t.cap then diag_slot.(key mod t.cap) <- slot.(q))
    keys;
  t.colptr <- colptr;
  t.rowind <- rowind;
  t.vals <- vals;
  t.diag_slot <- diag_slot;
  t.snap <- Array.make nz 0.0;
  t.compiled <- true;
  t.gen <- t.gen + 1;
  t.have_factor <- false;
  Hashtbl.clear t.building;
  t.q <-
    (let o = t.order in
     if Array.length o = 0 then min_degree_order m colptr rowind
     else Array.init m (fun k -> if k < Array.length o then o.(k) else k));
  t.stat_symbolic <- t.stat_symbolic + 1

let finish t = if not t.compiled then compile t

(* --- stamp targets ------------------------------------------------------ *)

(* One stamp plan's coordinate keys, in stamp order, and the value slot
   each resolves to.  Slots move whenever the pattern recompiles, which
   the generation stamp detects; the keys of entries only a transient
   stamps are marked, so a DC pass discovers exactly the coordinates it
   stamps.  Targets derived from a parent ([derive]: a fault patch of a
   session's base plan) hold only their own keys and copy the parent's
   slots over the ranges they share with it. *)
type targets = {
  keys : int array; (* every key; of derived targets, their own keys *)
  own : int array; (* derived: the position of each own key *)
  parent : targets option;
  copied : (int * int * int) list; (* (dst, src, len) ranges shared with the parent *)
  slots : int array; (* one per position *)
  mutable tgen : int; (* generation the slots belong to *)
  mutable complete : bool; (* the transient-only keys resolved too *)
}

let targets keys =
  {
    keys;
    own = [||];
    parent = None;
    copied = [];
    slots = Array.make (Array.length keys) 0;
    tgen = -1;
    complete = false;
  }

let derive parent ~copied ~own keys =
  if parent.parent <> None then invalid_arg "Sparse.derive: the parent is derived";
  let length = List.fold_left (fun n (_, _, len) -> n + len) (Array.length own) copied in
  { (targets keys) with own; parent = Some parent; copied; slots = Array.make length 0 }

let all_keys tg =
  match tg.parent with
  | None -> tg.keys
  | Some parent ->
    let keys = Array.make (Array.length tg.slots) 0 in
    List.iter (fun (dst, src, len) -> Array.blit parent.keys src keys dst len) tg.copied;
    Array.iteri (fun i p -> keys.(p) <- tg.keys.(i)) tg.own;
    keys

(* Whether derived targets can lean on their parent: every parent key,
   the transient-only ones included, is in the pattern.  Once that holds
   it holds for good (the pattern only grows), and the parent's
   [complete] records it.  Until then a fault patch must not reserve the
   coordinates of a device it replaced, so it reserves and resolves all
   of its keys, as a plain plan does. *)
let leans t tg =
  match tg.parent with
  | None -> false
  | Some parent ->
    let inside c =
      let k = decode ~extras:true c in
      k < 0
      || (if t.compiled then find_slot t (k / t.cap) (k mod t.cap) >= 0
          else Hashtbl.mem t.building k)
    in
    if not parent.complete then parent.complete <- Array.for_all inside parent.keys;
    parent.complete

(* Resolves [keys.(i)] into the slot at position [at i]; false when a
   transient-only key is outside the pattern (it gets the dump slot). *)
let resolve t tg keys at =
  let dump = Array.length t.rowind and ok = ref true in
  Array.iteri
    (fun i c ->
      let k = decode ~extras:true c in
      let slot = if k < 0 then dump else find_slot t (k / t.cap) (k mod t.cap) in
      if slot < 0 && c >= 0 then invalid_arg "Sparse.resolve: key outside the pattern";
      if slot < 0 then ok := false;
      tg.slots.(at i) <- (if slot < 0 then dump else slot))
    keys;
  !ok

let rec refresh t tg =
  if not t.compiled then invalid_arg "Sparse.resolve: pattern not compiled";
  (tg.complete <-
     match tg.parent with
     | Some parent when leans t tg ->
       if parent.tgen <> t.gen then refresh t parent;
       List.iter
         (fun (dst, src, len) -> Array.blit parent.slots src tg.slots dst len)
         tg.copied;
       resolve t tg tg.keys (Array.get tg.own)
     | Some _ -> resolve t tg (all_keys tg) Fun.id
     | None -> resolve t tg tg.keys Fun.id);
  tg.tgen <- t.gen

let reserve_targets t ~extras tg =
  reserve t ~extras (if tg.parent = None || leans t tg then tg.keys else all_keys tg)

(* Pattern discovery matches stamping coordinate by coordinate:
   coordinates outside the compiled pattern return the matrix to
   building mode and the grown union compiles once, before this stamp
   rather than after it - the same pattern, ordering and values either
   way. *)
let begin_stamp t ~n ~tran tg =
  open_pass t ~n;
  if tg.tgen <> t.gen || (tran && not tg.complete) then begin
    reserve_targets t ~extras:tran tg;
    finish t;
    refresh t tg
  end;
  tg.slots

(* Pattern priming for a chunk of stamp plans: open every pass (each
   may grow the active size) and reserve its transient coordinates, then
   compile the accumulated union pattern once, so no plan's first real
   stamp decompiles the symbolic analysis. *)
let prime t passes =
  List.iter
    (fun (n, tg) ->
      open_pass t ~n;
      reserve_targets t ~extras:true tg)
    passes;
  finish t

(* Fixes the column order of the leading [n] columns: minimum degree
   over [tg]'s pattern, transient entries and the [n] diagonals
   included.  Later pattern growth (fault coordinates, overlay rows)
   recompiles without reordering. *)
let order t ~n tg =
  if Array.length t.order = 0 then begin
    let set = Hashtbl.create 64 in
    Array.iter
      (fun c ->
        let k = decode ~extras:true c in
        if k >= 0 then Hashtbl.replace set k ())
      (all_keys tg);
    for r = 0 to n - 1 do
      Hashtbl.replace set ((r * t.cap) + r) ()
    done;
    let keys = Array.of_seq (Hashtbl.to_seq_keys set) in
    Array.sort Int.compare keys;
    let colptr, rowind, _ = csc ~cap:t.cap n keys in
    t.order <- min_degree_order n colptr rowind
  end

(* --- factorisation ----------------------------------------------------- *)

(* Growable factor storage. *)
let ensure arr len fill =
  if Array.length !arr >= len then ()
  else begin
    let cap = max len (max 16 (2 * Array.length !arr)) in
    let fresh = Array.make cap fill in
    Array.blit !arr 0 fresh 0 (Array.length !arr);
    arr := fresh
  end

(* DFS from [root] over the graph of already-computed L columns
   (cs_dfs): pushes the reach of [root] onto [xi] ending at [top] - 1,
   in topological (head-first) order.  Returns the new top. *)
let dfs t root k top0 =
  let head = ref 0 and top = ref top0 in
  t.rstack.(0) <- root;
  while !head >= 0 do
    let i = t.rstack.(!head) in
    let jcol = t.pinv.(i) in
    if t.flag.(i) <> k then begin
      t.flag.(i) <- k;
      t.pstack.(!head) <- (if jcol < 0 then 0 else t.lp.(jcol))
    end;
    let finished = ref true in
    if jcol >= 0 then begin
      let pend = t.lp.(jcol + 1) in
      let p = ref t.pstack.(!head) in
      while !finished && !p < pend do
        let i2 = t.li.(!p) in
        if t.flag.(i2) <> k then begin
          t.pstack.(!head) <- !p + 1;
          incr head;
          t.rstack.(!head) <- i2;
          finished := false
        end
        else incr p
      done;
      if !finished then t.pstack.(!head) <- pend
    end;
    if !finished then begin
      decr head;
      decr top;
      t.xi.(!top) <- i
    end
  done;
  !top

(* One full Gilbert-Peierls factorisation with threshold partial
   pivoting.  Raises {!Singular} naming the offending column's original
   unknown. *)
let full_factor t =
  let m = t.pat_n in
  let lnz = ref 0 and unz = ref 0 in
  t.snap_valid <- false;
  Array.fill t.pinv 0 m (-1);
  for i = 0 to m - 1 do
    t.flag.(i) <- -1;
    t.x.(i) <- 0.0
  done;
  (* Conservative initial factor capacity; grown on demand.  The DFS
     walks the in-progress L through [t.li]/[t.lp], so growth writes the
     resized arrays straight back into [t]. *)
  let grow_l len =
    let r = ref t.li in
    ensure r len 0;
    t.li <- !r;
    let r = ref t.lx in
    ensure r len 0.0;
    t.lx <- !r
  in
  let grow_u len =
    let r = ref t.ui in
    ensure r len 0;
    t.ui <- !r;
    let r = ref t.ux in
    ensure r len 0.0;
    t.ux <- !r
  in
  let est = max 64 (4 * Array.length t.rowind) in
  grow_l est;
  grow_u est;
  for k = 0 to m - 1 do
    t.lp.(k) <- !lnz;
    t.up.(k) <- !unz;
    let col = t.q.(k) in
    (* Symbolic: reach of the column's pattern through L. *)
    let top = ref m in
    for p = t.colptr.(col) to t.colptr.(col + 1) - 1 do
      let i = t.rowind.(p) in
      if t.flag.(i) <> k then top := dfs t i k !top
    done;
    (* Numeric: x = L \ A(:, col), in topological order. *)
    for p = t.colptr.(col) to t.colptr.(col + 1) - 1 do
      t.x.(t.rowind.(p)) <- t.vals.(p)
    done;
    for px = !top to m - 1 do
      let i = t.xi.(px) in
      let jcol = t.pinv.(i) in
      if jcol >= 0 then begin
        let xj = t.x.(i) in
        if xj <> 0.0 then
          for p = t.lp.(jcol) + 1 to t.lp.(jcol + 1) - 1 do
            t.x.(t.li.(p)) <- t.x.(t.li.(p)) -. (t.lx.(p) *. xj)
          done
      end
    done;
    (* Pivot: largest magnitude among not-yet-pivotal rows, with a
       preference for the diagonal when it is close enough. *)
    let ipiv = ref (-1) and amax = ref 0.0 in
    for px = !top to m - 1 do
      let i = t.xi.(px) in
      if t.pinv.(i) < 0 then begin
        let a = Float.abs t.x.(i) in
        if a > !amax then begin
          amax := a;
          ipiv := i
        end
      end
    done;
    if !ipiv < 0 || !amax < pivot_eps then begin
      (* Clean the workspace before giving up. *)
      for px = !top to m - 1 do
        t.x.(t.xi.(px)) <- 0.0
      done;
      t.have_factor <- false;
      raise (Singular col)
    end;
    if t.pinv.(col) < 0 && Float.abs t.x.(col) >= pivot_tol *. !amax then
      ipiv := col;
    let pivot = t.x.(!ipiv) in
    t.pinv.(!ipiv) <- k;
    (* Emit U (rows already pivotal) then L (rows below the pivot). *)
    grow_u (!unz + m + 1);
    grow_l (!lnz + m + 1);
    for px = !top to m - 1 do
      let i = t.xi.(px) in
      let pi = t.pinv.(i) in
      if pi >= 0 && pi < k then begin
        t.ui.(!unz) <- pi;
        t.ux.(!unz) <- t.x.(i);
        incr unz
      end
    done;
    t.ui.(!unz) <- k;
    t.ux.(!unz) <- pivot;
    incr unz;
    t.li.(!lnz) <- !ipiv;
    t.lx.(!lnz) <- 1.0;
    incr lnz;
    for px = !top to m - 1 do
      let i = t.xi.(px) in
      if t.pinv.(i) < 0 then begin
        t.li.(!lnz) <- i;
        t.lx.(!lnz) <- t.x.(i) /. pivot;
        incr lnz
      end;
      t.x.(i) <- 0.0
    done
  done;
  t.lp.(m) <- !lnz;
  t.up.(m) <- !unz;
  (* Map L's rows into pivot coordinates and sort both factors' columns
     by row, so refactorisation and the triangular solves can walk them
     in elimination order. *)
  for p = 0 to !lnz - 1 do
    t.li.(p) <- t.pinv.(t.li.(p))
  done;
  let sort_cols ptr idx vx =
    for k = 0 to m - 1 do
      let lo = ptr.(k) and hi = ptr.(k + 1) in
      let len = hi - lo in
      if len > 1 then begin
        let pairs = Array.init len (fun d -> (idx.(lo + d), vx.(lo + d))) in
        Array.sort (fun (a, _) (b, _) -> Int.compare a b) pairs;
        Array.iteri
          (fun d (i, v) ->
            idx.(lo + d) <- i;
            vx.(lo + d) <- v)
          pairs
      end
    done
  in
  sort_cols t.lp t.li t.lx;
  sort_cols t.up t.ui t.ux;
  t.have_factor <- true;
  t.stat_full <- t.stat_full + 1

exception Stale_pivot

(* Numeric refactorisation: same pattern, same pivot order, new values.
   No DFS, no pivot search.  Raises {!Stale_pivot} when a reused pivot
   has degenerated, absolutely or relative to its column, in which case
   the caller re-runs {!full_factor}. *)
let refactor t =
  let m = t.pat_n in
  for k = 0 to m - 1 do
    let col = t.q.(k) in
    (* Scatter A(:, col) into pivot coordinates.  Every target position
       lies inside column k's stored L/U pattern, which is also exactly
       what gets cleared below. *)
    for p = t.colptr.(col) to t.colptr.(col + 1) - 1 do
      t.x.(t.pinv.(t.rowind.(p))) <- t.vals.(p)
    done;
    let udiag = t.up.(k + 1) - 1 in
    for p = t.up.(k) to udiag - 1 do
      let j = t.ui.(p) in
      let xj = t.x.(j) in
      t.ux.(p) <- xj;
      if xj <> 0.0 then
        for pl = t.lp.(j) + 1 to t.lp.(j + 1) - 1 do
          t.x.(t.li.(pl)) <- t.x.(t.li.(pl)) -. (t.lx.(pl) *. xj)
        done
    done;
    let pivot = t.x.(k) in
    (* The reused pivot must keep [refactor_tol] of the largest entry it
       eliminates now: a fault that moves a conductance by orders of
       magnitude can leave it tiny but nonzero, and its multipliers
       would then swamp every digit of the solve. *)
    let amax = ref 0.0 in
    if Float.abs pivot >= pivot_eps then
      for pl = t.lp.(k) + 1 to t.lp.(k + 1) - 1 do
        let i = t.li.(pl) in
        let xi = t.x.(i) in
        if Float.abs xi > !amax then amax := Float.abs xi;
        t.lx.(pl) <- xi /. pivot;
        t.x.(i) <- 0.0
      done;
    t.ux.(udiag) <- pivot;
    for p = t.up.(k) to udiag do
      t.x.(t.ui.(p)) <- 0.0
    done;
    if Float.abs pivot < pivot_eps || Float.abs pivot < refactor_tol *. !amax then begin
      for pl = t.lp.(k) to t.lp.(k + 1) - 1 do
        t.x.(t.li.(pl)) <- 0.0
      done;
      raise Stale_pivot
    end
  done;
  t.stat_refactor <- t.stat_refactor + 1

(* Whether the stored factors are those [refactor] would compute from the
   current values: they came from a refactorisation, and the values equal
   its snapshot bit for bit.  One scan; at the first difference the rest
   of the values are copied into the snapshot, ready for the
   refactorisation that follows. *)
let unchanged t =
  let v = t.vals and s = t.snap in
  let nz = Array.length s in
  let p = ref 0 in
  if t.snap_valid then
    while !p < nz && Int64.bits_of_float v.(!p) = Int64.bits_of_float s.(!p) do
      incr p
    done;
  if t.snap_valid && !p = nz then true
  else begin
    Array.blit v !p s !p (nz - !p);
    false
  end

let factor_solve t =
  if not t.compiled then compile t;
  let m = t.pat_n in
  if m > 0 then begin
    (* Pad inactive overlay rows with a unit pivot and zero RHS: rows in
       [n, pat_n) then solve to exactly zero without disturbing the
       active window. *)
    for r = t.n to m - 1 do
      t.vals.(t.diag_slot.(r)) <- 1.0;
      t.b.(r) <- 0.0
    done;
    (if not t.have_factor then full_factor t
     else if unchanged t then t.stat_reuse <- t.stat_reuse + 1
     else
       match refactor t with
       | () -> t.snap_valid <- true
       | exception Stale_pivot ->
         t.stat_repivot <- t.stat_repivot + 1;
         full_factor t);
    (* Solve P A Q z = P b, then x = Q z. *)
    let w = t.work in
    for i = 0 to m - 1 do
      w.(t.pinv.(i)) <- t.b.(i)
    done;
    for k = 0 to m - 1 do
      let xk = w.(k) in
      if xk <> 0.0 then
        for p = t.lp.(k) + 1 to t.lp.(k + 1) - 1 do
          w.(t.li.(p)) <- w.(t.li.(p)) -. (t.lx.(p) *. xk)
        done
    done;
    for k = m - 1 downto 0 do
      let udiag = t.up.(k + 1) - 1 in
      let xk = w.(k) /. t.ux.(udiag) in
      w.(k) <- xk;
      if xk <> 0.0 then
        for p = t.up.(k) to udiag - 1 do
          w.(t.ui.(p)) <- w.(t.ui.(p)) -. (t.ux.(p) *. xk)
        done
    done;
    for k = 0 to m - 1 do
      t.b.(t.q.(k)) <- w.(k)
    done
  end

(* Report the work done since the previous flush.  A solve is always
   exactly one full factorisation, one refactorisation or one reuse, so
   it has no counter of its own; the pattern and factor sizes can only
   change when the pattern recompiles or a full factorisation runs, so
   they are sampled only then, while the fill-in is sampled per flush
   that solved. *)
let flush_stats t obs =
  if Obs.enabled obs then begin
    let emit name now prev = if now > prev then Obs.count obs name (now - prev) in
    emit "solver.sparse.full_factor" t.stat_full t.r_full;
    emit "solver.sparse.refactor" t.stat_refactor t.r_refactor;
    emit "solver.sparse.symbolic" t.stat_symbolic t.r_symbolic;
    emit "solver.sparse.repivot" t.stat_repivot t.r_repivot;
    emit "solver.sparse.reuse" t.stat_reuse t.r_reuse;
    let nnz = nnz t and fnnz = factor_nnz t in
    if t.stat_full > t.r_full || t.stat_symbolic > t.r_symbolic then begin
      Obs.sample obs "solver.sparse.nnz" (float_of_int nnz);
      Obs.sample obs "solver.sparse.factor_nnz" (float_of_int fnnz)
    end;
    if t.stat_full > t.r_full || t.stat_refactor > t.r_refactor || t.stat_reuse > t.r_reuse
    then
      Obs.sample obs "solver.sparse.fill_in" (float_of_int (max 0 (fnnz - nnz)));
    t.r_full <- t.stat_full;
    t.r_refactor <- t.stat_refactor;
    t.r_symbolic <- t.stat_symbolic;
    t.r_repivot <- t.stat_repivot;
    t.r_reuse <- t.stat_reuse
  end
