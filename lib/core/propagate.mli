(** Hybrid deduction — the [Ddeduce()] of Algorithm 1.

    Event-driven propagation to bounds consistency: Boolean constraint
    propagation over (hybrid) clauses and interval constraint
    propagation over the arithmetic constraints (§2.2), every deduced
    fact carrying its antecedent atoms for the hybrid implication
    graph. *)

open Rtlsat_constr.Types

exception Propagation_timeout
(** Raised by {!run} when [deadline] passes mid-fixpoint, or when the
    [cancel] flag is observed set.  Interval propagation can converge
    arbitrarily slowly (a wrap-around constraint over a 61-bit word
    may tighten a bound by 1 per sweep), so the fixpoint loop itself
    has to watch the clock — callers only regain control between
    propagation calls. *)

val run :
  ?full:bool ->
  ?deadline:float ->
  ?cancel:bool Atomic.t ->
  State.t ->
  atom array option
(** Propagate to fixpoint; [Some conflict] on inconsistency (the atoms
    are entailed and jointly inconsistent).  [full] additionally scans
    every clause and constraint once first — required for the initial
    root propagation, where unit clauses have produced no events yet.
    [deadline] is compared against the monotonic clock
    ({!Rtlsat_obs.Mono.now}); [cancel] is polled at the same fuel gate
    (every 4096 events), bounding how long a cancelled search keeps
    running.
    @raise Propagation_timeout when [deadline] passes or [cancel] is
    set. *)

val check_clause : State.t -> int -> unit
(** Examine one clause: no-op if satisfied or undetermined, asserts
    the unit atom, or @raise State.Conflict when falsified. *)

val propagate_constr : State.t -> int -> unit
(** Narrow the variables of one arithmetic constraint.
    @raise State.Conflict on empty domains. *)
