(** Level-1 (Shichman-Hodges) MOSFET evaluation.

    Conventions follow SPICE: for an NMOS, [ids] flows drain -> source and
    is >= 0 in normal operation; the evaluator handles source/drain
    interchange internally when [vds < 0], and PMOS by sign symmetry.

    Floats cross {!eval} through a scratch array instead of arguments and
    a result record, so one evaluation allocates nothing (a float passed
    to or returned from a function in another module is boxed).  The
    caller owns the scratch: one per session, never one shared between
    domains. *)

(** Bias in, channel current and derivatives out; index it with the
    slot constants below. *)
type scratch = float array

val make_scratch : unit -> scratch

(** Input slots: gate-source and drain-source voltage, both measured with
    the SPICE sign convention relative to the {e nominal} source
    terminal. *)

val vgs : int

val vds : int

(** Output slots: drain current (drain->source through the channel, A),
    d ids / d vgs and d ids / d vds. *)

val ids : int

val gm : int

val gds : int

(** [eval model ~w ~l s] evaluates the DC channel current and its
    derivatives at the bias held in [s.(vgs)] and [s.(vds)], writing
    them to [s.(ids)], [s.(gm)] and [s.(gds)]. *)
val eval : Netlist.Device.mos_model -> w:float -> l:float -> scratch -> unit

(** Operating region at the given bias (after internal D/S swap):
    ["off"], ["linear"] or ["saturation"] — for reports and tests. *)
val region : Netlist.Device.mos_model -> vgs:float -> vds:float -> string
