(** Modified nodal analysis bookkeeping.

    Unknowns are the non-ground node voltages followed by one branch
    current per voltage source and per inductor.  The matrix storage that
    device stamps accumulate into belongs to {!Solver}. *)

type t

(** [make circuit] indexes the circuit's nodes and branches. *)
val make : Netlist.Circuit.t -> t

(** Number of unknowns (nodes + branches). *)
val size : t -> int

val node_count : t -> int

(** [node_id t name] is the unknown index of node [name], or [-1] for
    ground.  Raises [Not_found] for unknown names. *)
val node_id : t -> string -> int

(** [branch_id t device_name] is the unknown index of the branch current
    owned by voltage source or inductor [device_name]. *)
val branch_id : t -> string -> int

(** Node names in index order (excluding ground). *)
val node_names : t -> string array

(** Branch owner names in index order. *)
val branch_names : t -> string array

(** [unknown_name t i] is a human-readable name for unknown [i]: the
    node name, ["I(device)"] for a branch current, the ground name for
    [-1], or ["overlay[i]"] for a session overlay row beyond the base
    unknowns. *)
val unknown_name : t -> int -> string
