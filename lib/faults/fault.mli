(** Hard (catastrophic) fault descriptions - the interface format between
    LIFT and AnaFAULT (the paper's fault list).

    Faults are electrical, expressed against netlist nets and device
    terminals, with the physical mechanism and probability of occurrence
    attached when the fault came from layout analysis. *)

(** One device terminal; [port] indexes {!Netlist.Device.nodes} order. *)
type terminal = { device : string; port : int }

type kind =
  | Bridge of { net_a : string; net_b : string }
      (** a short between two nets (local when the nets share a device,
          global otherwise - Fig. 2) *)
  | Break of { net : string; moved : terminal list }
      (** an open splitting [net]: the [moved] terminals end up on a new
          node (a split node of order n into k and n-k, Fig. 2); a single
          moved terminal is a local open *)
  | Stuck_open of { device : string }
      (** a transistor whose channel never conducts (missing gate over
          channel / broken channel diffusion) *)

type t = {
  id : string;  (** "#12" style identifier *)
  kind : kind;
  mechanism : string;  (** e.g. "metal1_short", "n_ds_short", "via_open" *)
  prob : float;  (** probability of occurrence; 0 when unknown *)
  note : string;  (** free-form locality information *)
}

val make : id:string -> kind:kind -> mechanism:string -> ?prob:float -> ?note:string -> unit -> t

(** [is_local circuit f] holds when a bridge joins two terminals of one
    device (the paper's "local short") or an open affects a single
    terminal. *)
val is_local : Netlist.Circuit.t -> t -> bool

(** [canonical k] normalises net and terminal order, so two kinds with
    the same electrical effect compare equal. *)
val canonical : kind -> kind

(** [equivalent a b] holds when the two faults have the same electrical
    effect (same kind up to net/terminal ordering), whatever their
    mechanism or probability. *)
val equivalent : t -> t -> bool

(** [classes kind_of xs] groups [xs] into equivalence classes of
    [canonical (kind_of x)]: one [(first, rest)] per class, in order of
    first occurrence, with [rest] the class's later members in list
    order.  Expected linear time (one hash per element), so folding
    [rest] into [first] sums in the same order as a left-to-right scan. *)
val classes : ('a -> kind) -> 'a list -> ('a * 'a list) list

(** [covers faults] is a membership test built once over [faults]:
    [covers faults f] holds when some fault of [faults] is
    {!equivalent} to [f]. *)
val covers : t list -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
