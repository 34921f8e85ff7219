(** A coarse uniform-grid spatial index over a rectangle array.

    The cell side is the mean shape extent, so a query visits the few
    rectangles near it rather than the whole array.  Results are
    ascending array indices, so a caller that filters them sees the
    candidates in the order a linear scan would. *)

type t

(** [build rects] indexes [rects] by position in the array. *)
val build : Rect.t array -> t

(** [near t r] is the ascending indices of every rectangle touching [r]
    ({!Rect.touches}), possibly with some farther ones: callers filter
    with their own predicate. *)
val near : t -> Rect.t -> int list
