(** A pure CNF pre/inprocessing pipeline over integer-encoded literals.

    Literal encoding matches {!Rtlsat_sat.Cdcl}: [2*v] is the positive
    literal of variable [v], [2*v+1] the negative one.

    The pipeline runs up to [max_rounds] rounds of four passes until a
    fixpoint:

    - {b binary-implication SCC collapsing}: literals in one strongly
      connected component of the binary implication graph are
      equivalent; each class keeps one representative and the rest are
      substituted away ([repr]).  A literal in the same component as
      its negation makes the formula unsatisfiable.
    - {b subsumption and self-subsuming resolution} with occurrence
      lists and 62-bit clause signatures: a clause [C] deletes any
      superset clause, and [C \ {l} U {~l} <= D] strengthens [D] by
      removing [~l].
    - {b failed-literal probing} (bounded): if asserting [l] leads to a
      conflict by unit propagation alone, [~l] is a top-level unit.
    - {b bounded variable elimination} (only with [elim:true]): a
      variable whose resolvent set is no larger than the clauses it
      replaces is resolved away; the replaced clauses are saved on
      [elim] so a model of the simplified formula can be extended to
      the eliminated variable ({!extend_model}).

    The result is equisatisfiable with the input, and every model of
    the output extends to a model of the input via [repr] and [elim].

    {b Implementation.}  The passes allocate almost nothing per clause
    visit.  Clauses live in one array, kept sorted and duplicate free
    between passes; a dead clause is the shared empty array.  Each
    round builds one flat occurrence store (an offsets array plus a
    data array, every literal's clauses newest first) that subsumption,
    probing and elimination read without copying.  Unit extraction
    ({i normalize}) is incremental: after its first full sweep it only
    rewrites clauses that mention a variable assigned or substituted
    since the previous sweep, and builds a variable index only when a
    rewrite derives a new unit that earlier clauses must see.

    {b Output contract.}  The result is a function of the input alone:
    the clause order, the units, [repr], [elim] and every counter in
    [r_stats] match those of the original list-based pipeline, kept
    as [test/simp_ref.ml] and checked field by field by the
    differential suite in [test/test_simplify.ml].  Downstream CDCL
    search therefore does not move when this module is optimized. *)

type stats = {
  mutable subsumed : int;      (** clauses deleted by subsumption *)
  mutable strengthened : int;  (** literals removed by self-subsumption *)
  mutable eliminated : int;    (** variables resolved away *)
  mutable probed : int;        (** failed literals turned into units *)
  mutable equivs : int;        (** variables substituted by SCC collapsing *)
  mutable rounds : int;        (** pipeline rounds actually run *)
}

val empty_stats : unit -> stats

val add_stats : stats -> stats -> unit
(** [add_stats acc s] accumulates [s] into [acc] (rounds included). *)

type result = {
  r_clauses : int array list;
      (** simplified clause database; every clause has >= 2 literals *)
  r_units : int list;
      (** top-level unit literals (input units plus derived ones),
          over representative variables only *)
  r_unsat : bool;  (** the formula was found unsatisfiable *)
  r_repr : int array;
      (** [r_repr.(v)] is the representative literal of variable [v];
          [2*v] when [v] was not substituted.  Fully path-compressed:
          the representative's own entry is always the identity. *)
  r_elim : (int * int array list) list;
      (** eliminated variables, most recently eliminated first, each
          with the clauses it occurred in at elimination time *)
  r_stats : stats;
}

val map_lit : int array -> int -> int
(** [map_lit repr l] rewrites literal [l] through a representative
    map as returned in [r_repr]. *)

val run :
  ?elim:bool ->
  ?frozen:(int -> bool) ->
  ?max_rounds:int ->
  ?stop:(unit -> bool) ->
  nvars:int ->
  units:int list ->
  clauses:int array list ->
  unit ->
  result
(** Simplify [clauses] (plus top-level [units]) over variables
    [0 .. nvars-1].

    [elim] (default [true]) enables bounded variable elimination;
    disable it when the consumer may later add clauses or assume
    literals over arbitrary variables (e.g. incremental solving).
    [frozen] marks variables that must never be eliminated (assumption
    variables); substitution and units still apply to them, so
    consumers must rewrite their own literals through [r_repr].

    [stop] (default: never) is polled before every round, between
    passes and every few thousand clause visits inside subsumption,
    probing and elimination — never inside unit extraction or SCC
    collapsing, which always run to completion.  Once it returns
    [true] the current pass ends at its next poll, the survivors are
    normalized once more and the run returns: the result is still
    equisatisfiable and reconstructible, just less simplified.  An
    always-true [stop] returns right after the first unit extraction
    with [rounds = 0].

    Clause arrays in the result may be physically shared with
    [clauses]; neither is mutated by [run]. *)

val extend_model : result -> bool array -> unit
(** [extend_model r model] completes a model of the simplified formula
    (values for representative variables) into a model of the original
    one, writing values for eliminated and substituted variables in
    place.  An eliminated variable is set true iff one of its saved
    positive clauses has every other literal false. *)
