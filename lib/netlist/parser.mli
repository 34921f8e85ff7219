(** Parser for the SPICE netlist dialect understood by the tool.

    Supported cards: title line, R/C/L/V/I/D/M elements, [.model]
    (NMOS/PMOS/D), [.subckt]/[.ends] definitions with [X] instances
    (flattened at parse time into ["inst.node"]/["inst.dev"] names,
    nested up to 20 levels), [.tran], [.end]; [*] comment lines, [+]
    continuations, engineering suffixes.  This is the subset AnaFAULT's
    fault-injection machinery manipulates — enough to round-trip every
    netlist the tool itself produces. *)

exception Parse_error of int * string
(** Line number (of the logical, continuation-joined line) and message. *)

(** A [.tran tstep tstop [UIC]] request.  The parser refuses, with a
    {!Parse_error} on the card's line, any card whose values are not
    finite with [0 < tstep <= tstop]. *)
type tran = { tstep : float; tstop : float; uic : bool }

type deck = { circuit : Circuit.t; tran : tran option }

val parse : string -> deck
