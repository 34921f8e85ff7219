(** Whole-circuit fault injection: the test suite's reference for
    {!Faults.Inject.delta}.  It rewrites the circuit itself with
    [Circuit.replace] and [Circuit.add], each a walk of the whole device
    list, and draws fresh names from the rewritten circuit, so a
    property can check that materialising a delta gives the same
    circuit, device for device. *)

(** [apply ~model circuit fault] is the faulty circuit.  Raises
    [Not_found] if the fault references devices or ports absent from
    [circuit]. *)
val apply :
  model:Faults.Inject.model -> Netlist.Circuit.t -> Faults.Fault.t -> Netlist.Circuit.t
