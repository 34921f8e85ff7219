(** Fault-site enumeration: where on the layout can a single spot defect
    change the circuit topology, and with what size-weighted critical
    area.

    Bridges come from pairs of unconnected shapes facing each other within
    the maximum defect size; opens from shapes and cuts whose removal
    splits their net (re-checked topologically); transistor stuck-opens
    from defects across a channel. *)

type bridge_site = {
  bridge_layer : Layout.Layer.t;
  net_a : int;
  net_b : int;
  bridge_ca : float;  (** size-weighted critical area, nm^2, summed over
                          all facing pairs of the two nets on this layer *)
}

type open_site = {
  open_layer : Layout.Layer.t;
  conductor : int;
  moved : Faults.Fault.terminal list;  (** terminals split off the net *)
  open_net : int;
  open_ca : float;
}

type cut_open_site = {
  cut_index : int;
  cut_mech : Layout.Tech.mechanism;
  cut_moved : Faults.Fault.terminal list;
  cut_net : int;
  cut_ca : float;
}

type stuck_site = {
  channel : Extract.Extraction.channel;
  stuck_ca : float;
}

(** [bridges ?pdf ext] lists bridge sites (distinct unordered net pairs
    per layer, [net_a < net_b]), using the technology's defect-size pdf
    unless [pdf] overrides it. *)
val bridges :
  ?pdf:Geom.Critical_area.size_pdf -> Extract.Extraction.t -> bridge_site list

(** [opens ?pdf ext] lists the line-open sites that actually split a net
    (conductors whose removal leaves two or more terminal groups). *)
val opens : ?pdf:Geom.Critical_area.size_pdf -> Extract.Extraction.t -> open_site list

(** [cut_opens ?pdf ext] is the analogue for missing contacts/vias. *)
val cut_opens :
  ?pdf:Geom.Critical_area.size_pdf -> Extract.Extraction.t -> cut_open_site list

(** [stuck ?pdf ext] lists transistor-channel defects (one per device). *)
val stuck : ?pdf:Geom.Critical_area.size_pdf -> Extract.Extraction.t -> stuck_site list

(** [split_effect ext ~skip_conductor ~skip_cut ~net] recomputes [net]'s
    connectivity with the given shapes suppressed and returns the
    terminals split off it, or [None] when the topology is unchanged
    (shared with the Monte-Carlo defect injector).

    The recomputation is net-local (suppression only removes edges, and
    every connectivity edge lies inside one net), and terminal groups are
    identified canonically by their smallest anchoring conductor index,
    so results are independent of how connectivity was computed. *)
val split_effect :
  Extract.Extraction.t ->
  skip_conductor:(int -> bool) ->
  skip_cut:(int -> bool) ->
  net:int ->
  Faults.Fault.terminal list option

(** {1 Shared machinery}

    Exposed for the staged {!Pipeline}, which enumerates sites per tile
    and must reproduce this module's results byte for byte. *)

(** Pre-indexed per-net membership (conductors, cuts, terminals) for
    repeated {!split} queries over one extraction.  Each net's
    connectivity graph (touching pairs and cut joins) is built by the
    first {!split} of that net and reused by the rest; a splitter may be
    shared across domains. *)
type splitter

val splitter : Extract.Extraction.t -> splitter

(** [nets_indexed sp] counts the nets whose connectivity graph [sp] has
    built so far. *)
val nets_indexed : splitter -> int

(** [split sp ~skip_conductor ~skip_cut ~net] is {!split_effect} against
    the pre-built index. *)
val split :
  splitter ->
  skip_conductor:(int -> bool) ->
  skip_cut:(int -> bool) ->
  net:int ->
  Faults.Fault.terminal list option

(** Size-weighted critical areas: closed forms for the cubic pdf, numeric
    integration otherwise.  Dimensions in nm, results in nm^2. *)

val short_ca :
  x_max:float -> Geom.Critical_area.size_pdf -> spacing:int -> length:int -> float

val open_ca_of :
  x_max:float -> Geom.Critical_area.size_pdf -> width:int -> length:int -> float

val cut_ca : x_max:float -> Geom.Critical_area.size_pdf -> side:int -> float

(** [cut_mech ext cut] is the failure mechanism of a missing [cut]
    (via open, or contact open to the lower layer it lands on). *)
val cut_mech : Extract.Extraction.t -> Extract.Extraction.cut -> Layout.Tech.mechanism

(** [pdf_of ?pdf ext] is [pdf], defaulting to the technology's defect-size
    pdf; [x_max_of ext] the maximum defect diameter as a float. *)
val pdf_of :
  ?pdf:Geom.Critical_area.size_pdf -> Extract.Extraction.t -> Geom.Critical_area.size_pdf

val x_max_of : Extract.Extraction.t -> float
