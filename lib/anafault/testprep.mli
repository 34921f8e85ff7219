(** Test-preparation comparison - the tool's stated purpose: "a
    comprehensive tool ... for the comparison of different test
    preparation techniques and target faults", with the procedure of
    section III: run the fault simulation for a candidate stimulus,
    inspect the coverage, refine, repeat.

    A {e candidate test} is a named function rewriting the circuit (a
    different control voltage, a supply ramp, an added load ...) plus the
    AnaFAULT configuration to judge it under. *)

type candidate = {
  label : string;
  prepare : Netlist.Circuit.t -> Netlist.Circuit.t;
      (** applies the stimulus to the circuit under test *)
  config : Simulate.config;
}

type verdict = {
  candidate : candidate;
  run : Simulate.run;
  coverage : float;  (** final coverage, % *)
  weighted : float;  (** probability-weighted coverage, % *)
  test_time : float option;  (** time to reach the final coverage, s *)
}

(** [compare circuit faults candidates] runs AnaFAULT once per candidate
    (through {!Parsim.execute}, on the candidate config's domains) and
    ranks the verdicts: higher weighted coverage first, shorter
    time-to-final-coverage as the tie-breaker. *)
val compare :
  Netlist.Circuit.t ->
  Faults.Fault.t list ->
  candidate list ->
  verdict list

val pp_table : Format.formatter -> verdict list -> unit
