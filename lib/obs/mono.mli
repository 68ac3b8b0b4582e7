(** Monotonic-clamped wall clock — the one clock for deadlines and
    elapsed-time measurement.

    [Unix.gettimeofday] follows NTP steps, so an absolute deadline
    computed from it can fire spuriously (step forward) or never (step
    back) mid-solve.  {!now} reads the wall clock and clamps it to the
    largest instant ever observed in this process, so differences of
    two readings are never negative and deadlines compare
    monotonically.

    Use this for every [deadline]/[elapsed] computation, trace and
    flight-recorder [t] stamps included; keep [Unix.gettimeofday] for
    the ledger's civil timestamps. *)

val now : unit -> float
(** Current time, seconds since the epoch, clamped to never decrease
    within this process. *)
