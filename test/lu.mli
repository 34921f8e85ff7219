(** Dense LU factorisation with partial pivoting: the test suite's
    reference oracle, an independent solve of the systems the sparse
    solver factors.  The matrix is one flat row-major [float array]: row
    [r] starts at [r * stride].  The factorisation works in place on
    caller-provided buffers. *)

exception Singular of int
(** Row index, in the caller's original row numbering (i.e. the MNA
    unknown index), whose pivot vanished - the elimination column's
    failed pivot mapped back through the permutation. *)

type scratch
(** Reusable pivot/permutation and substitution buffers. *)

(** [make_scratch n] allocates scratch for systems of up to [n] unknowns. *)
val make_scratch : int -> scratch

(** Capacity the scratch was allocated for. *)
val scratch_capacity : scratch -> int

(** [factor_solve ~n ~stride scratch a b] overwrites the leading [n]x[n]
    block of the row-major matrix [a] (row stride [stride]) with its LU
    factors and the first [n] entries of [b] with the solution of
    [a x = b].  No allocation happens; all intermediates live in
    [scratch].  Raises {!Singular} on a numerically singular matrix
    (pivot magnitude below 1e-30) and [Invalid_argument] if [scratch] is
    smaller than [n]. *)
val factor_solve : n:int -> stride:int -> scratch -> float array -> float array -> unit

(** [solve a b] overwrites the row-major [n]x[n] matrix [a] (with [n] the
    length of [b]) with its LU factors and [b] with the solution of
    [a x = b], allocating fresh scratch.  Raises {!Singular} on a
    numerically singular matrix. *)
val solve : float array -> float array -> unit

(** [solve_copy a b] is {!solve} on copies, leaving inputs intact. *)
val solve_copy : float array -> float array -> float array
