(** Indexed max-heap over externally-stored [float] priorities: the
    VSIDS decision queue of both CDCL kernels ({!Cdcl} and the hybrid
    solver) and the hybrid solver's split-candidate queue. *)

type t

val create : unit -> t
val insert : t -> float array -> int -> unit
(** No-op if the element is already present. *)

val bumped : t -> float array -> int -> unit
(** Restore heap order after the element's priority increased. *)

val pop : t -> float array -> int
(** @raise Invalid_argument on empty. *)

val is_empty : t -> bool
val mem : t -> int -> bool
val size : t -> int

val clear : t -> unit
(** Drop every element (the backing storage is kept). *)
