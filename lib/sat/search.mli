(** The search policy both CDCL kernels share: the hybrid solver
    ([Rtlsat_core.Solver]) and the Boolean one ({!Cdcl}).  VSIDS
    activity bumps, the Luby restart schedule with its inprocessing
    clock, and the deadline/cancel test.  Each kernel keeps its own
    loop, its activity decay and its gate periods, and calls these at
    the same points of it. *)

val luby : int -> int
(** The Luby sequence, 0-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 … *)

val bump : Heap.t -> float array -> nvars:int -> float -> int -> float
(** [bump heap activity ~nvars inc v] adds [inc] to [v]'s activity and
    restores [v]'s place in [heap].  Past 1e100 the first [nvars]
    activities and the increment are all scaled by 1e-100, which keeps
    their order.  Returns the increment to use from now on. *)

type restarts
(** One solve call's restart schedule: restart [k] is due
    [100 * luby (k - 1)] conflicts after restart [k - 1] (or the
    call's start), and the inprocessing clock. *)

val restarts : conflicts:int -> restarts
(** The schedule of a call whose kernel has counted [conflicts] so
    far (the inprocessing clock starts there). *)

val conflict : restarts -> unit
(** Count one conflict towards the next restart. *)

val due : restarts -> bool

val restart : restarts -> int
(** Start the next interval; returns the restart's number, 1 first. *)

val inprocess_due : restarts -> every:int -> conflicts:int -> bool
(** At a restart: [every > 0] and at least [every] conflicts have
    passed since the last inprocessing (or the call's start).  When
    [true], the clock restarts at [conflicts]. *)

val expired : deadline:float -> bool Atomic.t option -> bool
(** The monotonic clock ({!Rtlsat_obs.Mono.now}) is past [deadline],
    or the cancel flag is set. *)
