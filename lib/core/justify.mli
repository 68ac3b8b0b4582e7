(** Structural decision strategy (§4, Algorithm 2).

    Maintains the candidates of the dynamic J-frontier — Boolean gates
    and word-level muxes, the justifiable operators of Definition 4.1 —
    and turns the first unjustified one (scanning from the outputs
    toward the inputs) into a Boolean decision.  Purely arithmetic
    operators (adders, comparators, shifts) are not justifiable: their
    values are determined by interval constraint propagation alone.

    A mux whose required output interval intersects neither input is a
    structural conflict (J-conflict, §4.3): {!Jconflict} carries the
    implying bound atoms, and the caller feeds them to the regular
    hybrid conflict analysis to learn a clause and backtrack
    non-chronologically.

    {b Contract.}  {!decide} returns exactly what a scan of every gate
    in order would: the decision (or {!Jconflict}) of the first gate,
    in descending level and then creation order, whose check yields
    one.  The search is therefore byte-identical to that scan; only its
    cost differs.

    {b The frontier.}  The J-frontier is kept as a set of {e live}
    gates, the only ones {!decide} checks, in scan order.  A live gate
    whose check yields nothing is {e retired}, tagged with the trail
    length at that moment.  A retired gate's check keeps yielding
    nothing under any further narrowing of the state unless one of its
    {e triggers} gets a trail event:

    {v
    gate              triggers   why the rest cannot revive it
    AND / OR          z          an input at the controlling value, or
                                 all inputs at the other one, stays so
    XOR               z          an assigned input stays assigned
    Boolean mux       z          an assigned select, or an arm that
                                 contradicts z, stays so
    word mux          z, t, e    an assigned select stays assigned;
                                 t and e keep the J-conflict exact
    v}

    Each {!decide} first wakes (makes live again) the gates triggered
    by the trail entries added since the previous one, and every gate
    retired at a trail length above the lowest one reached since then
    ({!State.field-low_water}): a backtrack below a retirement's tag
    may have undone the very assignment that justified the gate.  The
    tag is a trail length, not a decision level, on purpose: a restart
    followed by assumption pushes, or a split decision, rebuilds the
    levels without a decide in between, so a level tag would keep
    retirements whose justification is gone.  A backtrack to exactly
    the tag keeps the retirement: the trail prefix it was made on is
    intact.  The checks, the scan and the wake-ups allocate nothing
    (beyond amortized growth of the retirement stack); only a returned
    decision does.

    One justifier serves a whole {!Solver.Session}: {!extend} absorbs
    the circuit nodes added since the last call and resets the
    frontier.  It reads the [low_water] field of the one state it
    decides on, so a state has at most one justifier. *)

open Rtlsat_constr.Types

type t

val create : Rtlsat_constr.Encode.t -> t
(** {!extend} from an empty justifier. *)

val extend : t -> unit
(** Absorb the encoded circuit's nodes added since the last
    {!create}/[extend] — their levels, fanout and gates, merged into
    the scan order exactly where a fresh {!create} would put them —
    and make every gate live.  Costs in proportion to the new nodes,
    plus one pass over the gate array: the frontier reset, and the
    merge when the circuit grew. *)

exception Jconflict of atom array

val n_candidates : t -> int

val decide :
  ?mux_pref:(var -> int * int) ->
  t ->
  State.t ->
  atom option
(** The next justification decision, or [None] when every candidate is
    justified.  [mux_pref sel] gives [(score for sel=1, score for
    sel=0)] from static predicate learning (§4.4): with a choice of
    select values, prefer the one satisfying more learned relations.
    @raise Jconflict on a structural conflict. *)

val fanout : t -> int array
(** Node id → fanout over the absorbed circuit, as
    {!Rtlsat_rtl.Structure.fanout_counts} computes it.  {!extend}
    replaces it when the circuit grew; the session's activity seeding
    reads it too. *)

val scan_order : t -> var array
(** The output variable of every candidate, in scan order. *)

val checks : t -> int
(** Gate checks made by {!decide} so far. *)
