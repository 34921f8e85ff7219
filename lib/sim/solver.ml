(* The pluggable linear-solver layer.

   Everything between device stamping and the Newton update goes through
   this module: [Engine] resolves its stamp plan to storage slots here,
   adds into the storage this module owns, and reads the solution back
   out, never knowing which matrix representation sits behind a slot.
   The [Dense] arm is a flat row-major matrix factored by [Lu]; the
   [Sparse] arm compiles the stamp pattern once per topology and then
   refactorises numerically (see {!Sparse}); [Auto] picks between them
   by capacity, so small circuits keep the dense solver that beats
   sparse machinery at their size. *)

type backend = Auto | Dense | Sparse

(* Below this many unknowns the dense solver's tight loops win over
   pattern compilation and indexed scatter; above it the O(n^3) factor
   dominates everything.  The crossover on this kernel sits well under
   100 unknowns, but the threshold leans dense so that seed-sized
   circuits keep seed behaviour exactly. *)
let auto_threshold = 100

let backend_to_string = function
  | Auto -> "auto"
  | Dense -> "dense"
  | Sparse -> "sparse"

let backend_of_string = function
  | "auto" -> Ok Auto
  | "dense" -> Ok Dense
  | "sparse" -> Ok Sparse
  | s -> Error (Printf.sprintf "unknown solver backend %S (want auto|dense|sparse)" s)

exception Singular of int

type dense = {
  cap : int;
  a : float array; (* row-major cap x cap, then the ground dump at cap * cap *)
  b : float array; (* cap entries, then the ground dump at cap *)
  scratch : Lu.scratch;
  mutable dn : int; (* active size of the current stamp *)
  mutable solves : int; (* cumulative; [flush_stats] reports deltas *)
  mutable reported_solves : int;
}

type sparse = {
  sp : Sparse.t;
  mutable r_full : int;
  mutable r_refactor : int;
  mutable r_solve : int;
  mutable r_symbolic : int;
  mutable r_repivot : int;
}

type t = D of dense | S of sparse

let create backend ~capacity =
  let capacity = max capacity 1 in
  let backend =
    match backend with
    | Auto -> if capacity >= auto_threshold then Sparse else Dense
    | (Dense | Sparse) as b -> b
  in
  match backend with
  | Dense ->
    D
      {
        cap = capacity;
        a = Array.make ((capacity * capacity) + 1) 0.0;
        b = Array.make (capacity + 1) 0.0;
        scratch = Lu.make_scratch capacity;
        dn = 0;
        solves = 0;
        reported_solves = 0;
      }
  | Sparse ->
    S
      {
        sp = Sparse.create ~capacity;
        r_full = 0;
        r_refactor = 0;
        r_solve = 0;
        r_symbolic = 0;
        r_repivot = 0;
      }
  | Auto -> assert false

let backend = function D _ -> Dense | S _ -> Sparse

let capacity = function
  | D d -> d.cap
  | S s -> Sparse.capacity s.sp

(* Stamp targets: one coordinate key per stamped entry, in stamp order,
   and the storage slot each resolves to.  A dense key is its cell offset
   (ground: the dump cell), so dense slots are the keys themselves.  A
   sparse slot indexes the compiled values and moves whenever the
   pattern recompiles, which the generation stamp detects; the keys of
   entries only a transient stamps are marked, so a DC pass discovers
   exactly the coordinates it stamps. *)
type targets = {
  keys : int array;
  slots : int array;
  mutable gen : int; (* sparse generation the slots belong to *)
  mutable complete : bool; (* the transient-only keys resolved too *)
}

let key t ~tran i j =
  match t with
  | D d -> if i < 0 || j < 0 then d.cap * d.cap else (i * d.cap) + j
  | S s -> Sparse.key s.sp ~extra:tran i j

let targets t keys =
  match t with
  | D _ -> { keys; slots = keys; gen = 0; complete = true }
  | S _ -> { keys; slots = Array.make (Array.length keys) 0; gen = -1; complete = false }

(* Pattern discovery matches stamping coordinate by coordinate:
   coordinates outside the compiled pattern return the sparse matrix to
   building mode and the grown union compiles once, before this stamp
   rather than after it - the same pattern, ordering and values either
   way. *)
let begin_stamp t ~n ~tran tg =
  match t with
  | D d ->
    if n > d.cap then invalid_arg "Solver.begin_stamp: n exceeds capacity";
    d.dn <- n;
    for i = 0 to n - 1 do
      Array.fill d.a (i * d.cap) n 0.0
    done;
    Array.fill d.b 0 n 0.0;
    tg.slots
  | S s ->
    Sparse.begin_stamp s.sp ~n;
    if tg.gen <> Sparse.generation s.sp || (tran && not tg.complete) then begin
      Sparse.reserve s.sp ~extras:tran tg.keys;
      Sparse.finish s.sp;
      tg.complete <- Sparse.resolve s.sp tg.keys tg.slots;
      tg.gen <- Sparse.generation s.sp
    end;
    tg.slots

let matrix = function D d -> d.a | S s -> Sparse.values s.sp

let solution = function D d -> d.b | S s -> Sparse.rhs s.sp

let get t i j =
  match t with
  | D d -> if i >= 0 && j >= 0 && i < d.dn && j < d.dn then Some d.a.((i * d.cap) + j) else None
  | S s -> Sparse.get s.sp i j

(* Pattern priming for a batch of stamp variants: open every pass (each
   may grow the active size) and reserve its transient coordinates, then
   compile the accumulated union pattern once, so no variant's first real
   stamp decompiles the symbolic analysis.  Dense has no pattern - priming
   is free there. *)
let prime t passes =
  match t with
  | D _ -> ()
  | S s ->
    List.iter
      (fun (n, tg) ->
        Sparse.begin_stamp s.sp ~n;
        Sparse.reserve s.sp ~extras:true tg.keys)
      passes;
    Sparse.finish s.sp

let factor_solve t =
  match t with
  | D d -> begin
    match Lu.factor_solve ~n:d.dn ~stride:d.cap d.scratch d.a d.b with
    | () -> d.solves <- d.solves + 1
    | exception Lu.Singular row -> raise (Singular row)
  end
  | S s -> begin
    match Sparse.factor_solve s.sp with
    | () -> ()
    | exception Sparse.Singular i -> raise (Singular i)
  end

(* Report work done since the previous flush.  Counter names are
   per-backend so a mixed campaign (dense nominal circuit, sparse
   synthesized one) keeps the two books separate in [--metrics]. *)
let flush_stats t obs =
  if Obs.enabled obs then begin
    match t with
    | D d ->
      let ds = d.solves - d.reported_solves in
      if ds > 0 then begin
        d.reported_solves <- d.solves;
        Obs.count obs "solver.dense.factor_solve" ds
      end
    | S s ->
      let full, refactor, solve, symbolic, repivot = Sparse.stats s.sp in
      let emit name now prev = if now - prev > 0 then Obs.count obs name (now - prev) in
      emit "solver.sparse.full_factor" full s.r_full;
      emit "solver.sparse.refactor" refactor s.r_refactor;
      emit "solver.sparse.solve" solve s.r_solve;
      emit "solver.sparse.symbolic" symbolic s.r_symbolic;
      emit "solver.sparse.repivot" repivot s.r_repivot;
      if solve > s.r_solve then begin
        let nnz = Sparse.nnz s.sp and fnnz = Sparse.factor_nnz s.sp in
        Obs.sample obs "solver.sparse.nnz" (float_of_int nnz);
        Obs.sample obs "solver.sparse.factor_nnz" (float_of_int fnnz);
        Obs.sample obs "solver.sparse.fill_in" (float_of_int (max 0 (fnnz - nnz)))
      end;
      s.r_full <- full;
      s.r_refactor <- refactor;
      s.r_solve <- solve;
      s.r_symbolic <- symbolic;
      s.r_repivot <- repivot
  end
