(** Fault injection: rewriting a netlist so the kernel simulator simulates
    the faulty circuit.

    Two simulation models, following the paper (and [30][31]):
    - the {e resistor model} adds a small resistor for a short and a large
      resistor for an open (defaults 0.01 ohm / 100 Mohm);
    - the {e source model} adds a 0 V source for a short (an ideal short
      whose branch current is observable) and a 0 A source for an open
      (an ideal disconnection).

    A transistor stuck-open is modelled identically under both: the
    device's transconductance is zeroed (channel never conducts) while its
    gate capacitances remain. *)

type model =
  | Resistor of { r_short : float; r_open : float }
  | Source

(** The paper's resistor-model values: 0.01 ohm short, 100 Mohm open. *)
val default_resistor : model

(** [delta ~model (Netlist.Circuit.index base) fault] is the faulty
    circuit as a difference from [base]: a bridge appends one device, an
    open rewires the moved terminals of their devices in place onto one
    fresh node and appends one device, a stuck-open replaces its
    transistor in place.  Injected devices are named [F_<kind><n>]
    ([VF_BRI], [IF_OPEN] under the source model), the fresh node
    {!break_node_name}[ fault] (or its first free numbered variant).
    A bridge between two nets that are already the same net is
    {!Netlist.Circuit.unchanged} (the fault has no electrical effect).
    Raises [Not_found] if the fault references devices or ports absent
    from [base]. *)
val delta : model:model -> Netlist.Circuit.index -> Fault.t -> Netlist.Circuit.delta

(** [apply ~model circuit fault] is the faulty circuit itself:
    [Netlist.Circuit.materialise circuit] of {!delta}.  Raises as
    {!delta} does. *)
val apply : model:model -> Netlist.Circuit.t -> Fault.t -> Netlist.Circuit.t

(** The name of the node created for the detached side of a [Break]
    fault, for probing. *)
val break_node_name : Fault.t -> string
