(** The pluggable linear-solver layer of the MNA core.

    A solver value owns all storage for one circuit topology's linear
    systems.  [Engine] compiles each device list once into a stamp plan;
    the plan's matrix coordinates become {!targets}, resolved here to
    slots of the solver's storage.  Every Newton iteration then runs
    {!begin_stamp}, adds into [(matrix t).(slot)] and
    [(solution t).(row)], and calls {!factor_solve}: stamping makes no
    call into this module per entry and never learns which backend it
    writes to.

    Two backends exist.  [Dense] is a flat row-major matrix factored by
    {!Lu}; a slot is a cell offset.  [Sparse] compiles the accumulated
    stamp pattern into compressed form once per topology and afterwards
    refactorises numerically with a frozen pivot order (see {!Sparse});
    a slot is a compiled value index, re-resolved when the pattern
    grows.  Fault patches stamp into a pattern superset, so a whole
    campaign shares one symbolic analysis.  [Auto] resolves to one of the
    two at {!create} time by comparing the capacity against
    {!auto_threshold}. *)

type backend = Auto | Dense | Sparse

(** [Auto] capacity cutoff: below it dense wins, at or above it sparse
    does. *)
val auto_threshold : int

(** ["auto"], ["dense"] or ["sparse"]. *)
val backend_to_string : backend -> string

(** Inverse of {!backend_to_string}; [Error] explains the choices. *)
val backend_of_string : string -> (backend, string) result

exception Singular of int
(** The system has no usable pivot; the payload is the index of the
    offending unknown in the caller's (original MNA) numbering, ready
    for {!Mna.unknown_name}. *)

type t

(** [create backend ~capacity] allocates a solver for systems of up to
    [capacity] unknowns.  [Auto] resolves here, against [capacity]. *)
val create : backend -> capacity:int -> t

(** The resolved backend (never [Auto]). *)
val backend : t -> backend

val capacity : t -> int

(** [key t ~tran i j] encodes matrix coordinate [(i, j)] for
    {!targets}; a negative index is ground, whose additions go to a dump
    slot that is never read.  [~tran:true] marks an entry only transient
    passes stamp (a companion model), so DC passes leave it out of the
    sparse pattern. *)
val key : t -> tran:bool -> int -> int -> int

(** The matrix entries one stamp plan writes, in stamp order, each
    resolved to a slot of {!matrix}. *)
type targets

(** [targets t keys] declares the entries (from {!key}) of one plan for
    solver [t]; the targets belong to that solver alone. *)
val targets : t -> int array -> targets

(** [begin_stamp t ~n ~tran tg] opens a stamping pass for an [n]-unknown
    system, clearing the previous values, and returns the slot of every
    entry of [tg] in the storage this pass writes, re-resolved when the
    sparse pattern moved.  A [~tran:false] pass must not write the
    transient-only entries; every other entry must be stamped. *)
val begin_stamp : t -> n:int -> tran:bool -> targets -> int array

(** The matrix storage of the current pass; fetch it after
    {!begin_stamp}, which may replace it. *)
val matrix : t -> float array

(** The buffer holding the right-hand side during stamping (index
    [capacity t] is the dump for ground rows) and the solution after
    {!factor_solve} (leading [n] entries). *)
val solution : t -> float array

(** [get t i j] is the stored value at [(i, j)] of the current pass:
    [None] outside the active system or the sparse pattern.  For
    inspection; stamping goes through slots. *)
val get : t -> int -> int -> float option

(** [prime t passes] makes the stamp pattern the union of every pass's
    targets (transient entries included), each at its active size, and
    compiles it once, so none of
    the passes' later real stamps triggers a symbolic recompilation.
    Batched fault simulation primes one pass per variant before stepping
    any of them.  No-op on the dense backend. *)
val prime : t -> (int * targets) list -> unit

(** Factors the stamped system and leaves the solution in {!solution}.
    Raises {!Singular} when the matrix has no usable pivot. *)
val factor_solve : t -> unit

(** [flush_stats t obs] emits the work done since the previous flush as
    per-backend counters ([solver.dense.factor_solve];
    [solver.sparse.full_factor]/[refactor]/[solve]/[symbolic]/[repivot]
    plus [nnz]/[factor_nnz]/[fill_in] samples).  Free under a null
    sink. *)
val flush_stats : t -> Obs.sink -> unit
