(** Periodic in-flight progress telemetry: a rate-limiter plus delta
    tracker owned by an enabled {!Obs.t}.  The solver's existing
    step-count gates ask {!due} (one clock read); at most once per
    interval {!beat}
    produces the field list of one [heartbeat] trace event: running
    totals (decisions, conflicts, propagations, splits, stalls, total
    interval width shaved, current decision level) and per-second
    rates over the previous beat ([dps]/[cps]/[pps]).
    [rtlsat profile] prints the last beat of a trace or flight dump. *)

type t

val create : every:float -> t
(** A heartbeat due immediately, then at most once per [every]
    seconds.  @raise Invalid_argument when [every <= 0]. *)

val due : t -> float -> bool
(** [due t now]: has the interval elapsed? *)

val beat :
  t ->
  now:float ->
  now_rel:float ->
  decisions:int ->
  conflicts:int ->
  propagations:int ->
  splits:int ->
  stalls:int ->
  shaved:int ->
  lvl:int ->
  (string * Json.t) list
(** Advance the state machine and return the [heartbeat] event fields
    ([seq], totals, rates, [lvl]).  [now] is absolute (for the next
    deadline), [now_rel] is seconds since the owning handle's t0 (for
    rate deltas, matching the trace timestamps).  Non-monotonic or
    zero elapsed time between beats (a stepped clock) freezes the
    delta baseline and re-emits the previous rates instead of
    producing negative or infinite [dps]/[cps]/[pps]; totals still
    carry forward. *)
