(** Sparse LU backend for the MNA core.

    The nonzero pattern of an MNA system is fixed per circuit topology,
    so this backend splits the work the dense solver redoes on every
    Newton iteration into three amortised tiers:

    - {e pattern compilation} (per topology, and per pattern growth): the
      union of every coordinate ever stamped becomes a CSC structure with
      a greedy minimum-degree column ordering;
    - {e full factorisation} (once per compiled pattern, and on pivot
      decay): Gilbert-Peierls left-looking LU with threshold partial
      pivoting, recording the factor pattern and the pivot order;
    - {e numeric refactorisation} (every other solve): the stored pattern
      and pivot order are replayed on the new values - no graph
      traversal, no pivot search.

    A solver instance owns all of its storage; batch sessions keep one
    instance per topology and stamp fault patches into a pattern superset
    (the pattern only grows), so consecutive faults share the symbolic
    work.  Inactive overlay rows are padded with a unit diagonal, which
    keeps one pivot sequence valid across active-size changes without
    perturbing the active unknowns. *)

type t

exception Singular of int
(** Original (pre-ordering) index of the unknown whose pivot vanished. *)

(** [create ~capacity] allocates an instance for systems of up to
    [capacity] unknowns. *)
val create : capacity:int -> t

val capacity : t -> int

(** The right-hand-side buffer (length [capacity + 1]; index [capacity]
    is the dump for ground rows); {!factor_solve} overwrites its leading
    active entries with the solution. *)
val rhs : t -> float array

(** [begin_stamp t ~n] opens a stamping pass for an [n]-unknown system:
    zeroes the values (keeping the accumulated pattern) and the leading
    right-hand side. *)
val begin_stamp : t -> n:int -> unit

(** [key t ?extra i j] encodes coordinate [(i, j)] for {!reserve} and
    {!resolve}: [-1] when either index is negative (ground); with
    [~extra:true] the coordinate is stamped only by passes that include
    extras. *)
val key : t -> ?extra:bool -> int -> int -> int

(** [reserve t ~extras keys] makes every key of [keys] (extras only when
    [extras]) part of the pattern.  When one lies outside the compiled
    pattern the matrix returns to building mode and the next {!finish}
    compiles the grown union.  Called right after {!begin_stamp}, a
    reserve, a {!finish} and additions into the resolved slots leave
    every value with the bits the same additions would give if
    accumulated coordinate by coordinate. *)
val reserve : t -> extras:bool -> int array -> unit

(** Seals the stamping pass, compiling the pattern if it grew. *)
val finish : t -> unit

(** Changes whenever the pattern is compiled or decompiled, i.e. whenever
    slots written by {!resolve} may have moved. *)
val generation : t -> int

(** [resolve t keys slots] writes the index in {!values} of every key
    into [slots] (the ground dump, one past the last value slot, for
    ground), and answers whether every extra key is in the pattern too;
    an extra key outside it resolves to the dump.  Raises
    [Invalid_argument] when the pattern is not compiled or lacks a key
    that is not an extra. *)
val resolve : t -> int array -> int array -> bool

(** [get t i j] is the compiled value at [(i, j)], [None] outside the
    pattern or before compilation. *)
val get : t -> int -> int -> float option

(** The compiled values, indexed by the slots of {!resolve}.
    Compilation replaces the array, so fetch it after the slots are
    resolved. *)
val values : t -> float array

(** Factors the stamped system and overwrites the leading [n] entries of
    {!rhs} with the solution.  Chooses refactorisation when the stored
    pivot sequence is still valid, full factorisation otherwise.
    Raises {!Singular} when no usable pivot exists. *)
val factor_solve : t -> unit

(** Nonzeros of the compiled stamp pattern. *)
val nnz : t -> int

(** Nonzeros of the current L + U factors (0 before any factorisation);
    [factor_nnz - nnz] is the fill-in. *)
val factor_nnz : t -> int

(** Cumulative (full factorisations, refactorisations, solves, symbolic
    compilations, pivot-sequence rebuilds). *)
val stats : t -> int * int * int * int * int
