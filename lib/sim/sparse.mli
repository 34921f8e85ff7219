(** The linear solver of the MNA core: sparse LU.

    A solver instance owns all storage for one circuit topology's linear
    systems.  [Engine] compiles each device list once into a stamp plan
    whose matrix coordinates become {!targets}; every Newton iteration
    then runs {!begin_stamp}, adds into [(values t).(slot)] and
    [(rhs t).(row)], and calls {!factor_solve}, with no call into this
    module per entry.

    The nonzero pattern of an MNA system is fixed per circuit topology,
    so the work splits into three amortised tiers:

    - {e pattern compilation} (per topology, and per pattern growth): the
      union of every coordinate ever stamped becomes a CSC structure with
      a greedy minimum-degree column ordering;
    - {e full factorisation} (once per compiled pattern, and on pivot
      decay): Gilbert-Peierls left-looking LU with threshold partial
      pivoting, recording the factor pattern and the pivot order;
    - {e numeric refactorisation} (every other solve that cannot reuse,
      below): the stored pattern and pivot order are replayed on the
      new values - no graph traversal, no pivot search;
    - {e reuse} (a solve whose values equal, bit for bit, those of the
      refactorisation that made the stored factors): no factorisation at
      all, since refactorising would recompute the same factors to the
      last bit.  A linear circuit's matrix depends only on the step size,
      so most of its solves reuse.

    Batch sessions keep one instance per topology and stamp fault
    patches into a pattern superset (the pattern only grows, and
    {!prime} compiles a whole batch's union up front), so consecutive
    faults share the symbolic work; a session fixes its column ordering
    once ({!order}), so a recompilation of the grown pattern runs no
    ordering pass.  Inactive overlay rows are padded
    with a unit diagonal, which keeps one pivot sequence valid across
    active-size changes without perturbing the active unknowns. *)

type t

exception Singular of int
(** The system has no usable pivot; the payload is the index of the
    offending unknown in the caller's (original MNA) numbering, ready
    for {!Mna.unknown_name}. *)

(** [create ~capacity] allocates an instance for systems of up to
    [capacity] unknowns. *)
val create : capacity:int -> t

val capacity : t -> int

(** [key t ?tran i j] encodes matrix coordinate [(i, j)] for
    {!targets}; a negative index is ground, whose additions go to a dump
    slot that is never read.  [~tran:true] marks an entry only transient
    passes stamp (a companion model), so DC passes leave it out of the
    pattern. *)
val key : t -> ?tran:bool -> int -> int -> int

(** The matrix entries one stamp plan writes, in stamp order, each
    resolved to a slot of {!values}. *)
type targets

(** [targets keys] declares the entries (from {!key}) of one plan.  The
    keys encode coordinates for one solver, and the targets are used
    with that solver alone. *)
val targets : int array -> targets

(** [derive parent ~copied ~own keys] declares the targets of a plan
    that shares most entries with the plain targets [parent]: each
    [(dst, src, len)] of [copied] (ascending, disjoint) says that the
    entries from [dst] are [parent]'s from [src], for [len] entries, and
    [keys.(i)] is the entry at position [own.(i)]; together they cover
    every position once.  Shared entries take [parent]'s slots, which
    are resolved once per pattern generation for every plan derived
    from it; only the own keys are resolved, and, once every [parent]
    key is in the pattern, reserved, on their own.  Raises
    [Invalid_argument] when [parent] is itself derived. *)
val derive : targets -> copied:(int * int * int) list -> own:int array -> int array -> targets

(** Every key of the targets, in stamp order (not to be modified). *)
val all_keys : targets -> int array

(** [begin_stamp t ~n ~tran tg] opens a stamping pass for an [n]-unknown
    system, zeroing the values (keeping the accumulated pattern) and the
    leading right-hand side, and returns the slot of every entry of [tg]
    in {!values}, re-resolved when the pattern moved.  An entry outside
    the compiled pattern grows it: the union is recompiled before this
    pass, with the same pattern, ordering and values as accumulating the
    pass coordinate by coordinate would give.  A [~tran:false] pass must
    not write the transient-only entries; every other entry must be
    stamped. *)
val begin_stamp : t -> n:int -> tran:bool -> targets -> int array

(** The compiled values, indexed by the slots of {!begin_stamp}.
    Compilation replaces the array, so fetch it after {!begin_stamp}. *)
val values : t -> float array

(** The buffer holding the right-hand side during stamping (length
    [capacity + 1]; index [capacity] is the dump for ground rows) and
    the solution after {!factor_solve} (leading [n] entries). *)
val rhs : t -> float array

(** [get t i j] is the stored value at [(i, j)] of the current pass:
    [None] outside the compiled pattern.  For inspection; stamping goes
    through slots. *)
val get : t -> int -> int -> float option

(** [prime t passes] makes the pattern the union of every pass's
    targets (transient entries included), each at its active size, and
    compiles it once, so none of the passes' later real stamps triggers
    a symbolic recompilation.  Chunked fault simulation primes one pass
    per fault patch before solving any of them. *)
val prime : t -> (int * targets) list -> unit

(** [order t ~n tg] fixes the column order of the first [n] unknowns
    once, as the minimum-degree order of [tg]'s pattern (transient
    entries included); every later compilation keeps it, whatever
    coordinates the pattern gains, and orders any further columns after
    it by index.  A no-op once an order is fixed.  Batch sessions fix
    their base circuit's order before the first chunk of faults. *)
val order : t -> n:int -> targets -> unit

(** Factors the stamped system and overwrites the leading [n] entries of
    {!rhs} with the solution.  Reuses the stored factors when they came
    from a refactorisation of exactly these values (compared bit for
    bit, inactive rows padded; no tolerance); refactorises with the
    stored pivot sequence while it is valid and every reused pivot keeps
    at least 1e-6 of the largest entry it eliminates; factors afresh
    otherwise.  A solve after a full factorisation always refactorises,
    so reused factors are bit-identical to what refactorising would
    give.  Raises {!Singular} when no usable pivot exists. *)
val factor_solve : t -> unit

(** Cumulative work counts: full factorisations, refactorisations,
    reuses of unchanged factors, symbolic compilations and
    pivot-sequence rebuilds.  Every solve is exactly one full
    factorisation, one refactorisation or one reuse (a rebuild counts as
    a full factorisation), so solves are [full + refactor + reuse]. *)
type stats = { full : int; refactor : int; reuse : int; symbolic : int; repivot : int }

val stats : t -> stats

(** [flush_stats t obs] emits the work done since the previous flush:
    counters [solver.sparse.full_factor]/[refactor]/[reuse]/[symbolic]/
    [repivot] (there is no solve counter: it would always equal
    [full_factor + refactor + reuse]), a [fill_in] sample (factor
    nonzeros minus pattern nonzeros) per flush that solved, reuse-only
    flushes included, and [nnz]/[factor_nnz] samples only when a full
    factorisation or a symbolic compilation happened, since neither can
    change otherwise.  Free under a null sink. *)
val flush_stats : t -> Obs.sink -> unit
