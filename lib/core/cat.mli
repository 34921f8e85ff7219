(** The CAT (Computer-Aided Test) system of the paper: LIFT and AnaFAULT
    linked into one flow (Fig. 1).

    {v
      all faults --------\
      schematic -> [L2RFM] -> fault list -> AnaFAULT -> coverage
      layout ----> [LIFT/GLRFM] --^
    v}

    This module is glue: each stage lives in its own library ([geom],
    [layout], [netlist], [extract], [defects], [sim], [faults],
    [anafault], [vco]); here the common pipelines are one call. *)

(** Everything the layout-driven flow produces. *)
type glrfm = {
  extraction : Extract.Extraction.t;
  lvs : Extract.Compare.mismatch list;
      (** empty when the layout implements [golden] *)
  lift : Defects.Lift.result;
}

(** [run_glrfm ?lift_options ?extractor_options ~golden mask] extracts the
    circuit from [mask], verifies it against the [golden] schematic, and
    runs LIFT.  Raises {!Extract.Extractor.Extract_error} on malformed
    layouts. *)
val run_glrfm :
  ?lift_options:Defects.Lift.options ->
  ?extractor_options:Extract.Extractor.options ->
  golden:Netlist.Circuit.t ->
  Layout.Mask.t ->
  glrfm

(** [run_fault_simulation config circuit faults] runs AnaFAULT on
    [config.domains] domains ({!Anafault.Parsim.execute}). *)
val run_fault_simulation :
  Anafault.Simulate.config ->
  Netlist.Circuit.t ->
  Faults.Fault.t list ->
  Anafault.Simulate.run

(** The paper's demonstrator, packaged: VCO schematic, generated layout,
    extractor options that recover the schematic, and the 400-step / 4 us
    AnaFAULT configuration observing node 11. *)
module Demo : sig
  val schematic : unit -> Netlist.Circuit.t

  val mask : unit -> Layout.Mask.t

  val extractor_options : Extract.Extractor.options

  val config : Anafault.Simulate.config

  (** [universe ()] is the complete schematic fault list (79 opens + 73
      shorts for the VCO). *)
  val universe : unit -> Faults.Fault.t list
end
