(** A flat transistor-level circuit (the unit AnaFAULT simulates).

    The device list order is preserved; device names must be unique
    ([add] enforces this). *)

type t = { title : string; devices : Device.t list }

val empty : string -> t

(** [add t dev] appends [dev].  Raises [Invalid_argument] when a device of
    the same name is already present. *)
val add : t -> Device.t -> t

(** [of_devices title devices] keeps [devices] in order, in linear time.
    Raises [Invalid_argument] on a repeated name, as {!add} does. *)
val of_devices : string -> Device.t list -> t

val devices : t -> Device.t list

val device_count : t -> int

(** All node names, ground included, sorted. *)
val nodes : t -> Device.node list

(** [find t name] is the device called [name]. *)
val find : t -> string -> Device.t option

(** [remove t name] drops the device called [name] (no-op when absent). *)
val remove : t -> string -> t

(** [replace t dev] substitutes the existing device of the same name.
    Raises [Not_found] when absent. *)
val replace : t -> Device.t -> t

(** [rename_node t ~from_ ~to_] rewires every terminal equal to [from_]
    to [to_] (the electrical effect of an ideal short). *)
val rename_node : t -> from_:Device.node -> to_:Device.node -> t

(** [devices_on t node] lists devices with a terminal on [node]. *)
val devices_on : t -> Device.node -> Device.t list

(** {1 Deltas}

    A fault changes a circuit locally, so fault injection describes the
    faulty circuit as a difference from its base: devices replaced in
    place, by position, and devices appended after the base's.  The
    kernel compiles a delta onto the base's compiled form
    ([Sim.Engine.Session.patch]) without materialising the circuit. *)

(** [replaced] holds [(position, device)] pairs, positions (indices into
    {!devices} of the base) strictly ascending; each device takes the
    place of the base device at its position and must keep its name
    and kind.
    [added] follows the base devices, in order, under names the base
    does not use. *)
type delta = { replaced : (int * Device.t) list; added : Device.t list }

(** The empty delta: the base circuit itself. *)
val unchanged : delta

(** [materialise t delta] is the circuit [delta] describes against the
    base [t].  Raises [Invalid_argument] when a position is out of
    range. *)
val materialise : t -> delta -> t

(** A lookup structure over one base circuit, built in linear time: the
    position of every device name, and the set of node names. *)
type index

val index : t -> index

(** [lookup ix name] is the position and the device called [name]. *)
val lookup : index -> string -> (int * Device.t) option

(** [fresh_node (index t) base] is a node name starting with [base] that
    [t] does not use: [base] itself, else the first free of [base1],
    [base2], ... *)
val fresh_node : index -> string -> Device.node

(** [fresh_name (index t) base] is a device name starting with [base]
    that [t] does not use, chosen as {!fresh_node} chooses. *)
val fresh_name : index -> string -> string

(** Distinct MOS models (by model name) used in the circuit, for .model
    cards. *)
val mos_models : t -> Device.mos_model list

val diode_models : t -> Device.diode_model list

val pp : Format.formatter -> t -> unit
