(** A standalone CDCL Boolean satisfiability solver.

    Implements the modern DPLL variant sketched in §2.4: two-watched-
    literal unit propagation, first-UIP conflict analysis with clause
    learning, non-chronological backtracking, exponentially-decaying
    variable activities (VSIDS), phase saving and Luby restarts.  The
    activity heap and the restart and bump policy are {!Heap} and
    {!Search}, shared with the hybrid solver.

    This is the Boolean engine behind the eager bit-blasting baseline
    (the UCLID stand-in) and the propositional skeleton of the lazy
    combined-decision-procedure baseline (the ICS stand-in).

    {b Implementation.}  No search operation allocates or takes time
    proportional to the search depth, apart from the learned clause
    itself.  The decision levels are an int-array stack of trail
    positions with a level counter, so the decision level is O(1) and
    a backtrack costs only the trail entries it pops.  Every literal's
    watchers are an int array plus a length, newest watcher last.
    Propagation reads them newest first out of the old array and
    writes the kept ones, in visit order, into a spare array that
    becomes the literal's; on a conflict the unvisited watchers follow
    in their old order.  Conflict analysis fills a reusable buffer,
    and [solve] turns the assumptions into an array once per call.

    {b Search contract.}  The search is a function of the call
    sequence alone and is exactly that of the original list-based
    solver (watchers as [int list], levels as a list of trail
    positions), kept as [test/cdcl_ref.ml]: the same propagation
    order, the same learned clauses with their literals in the same
    order, the same VSIDS and phase state, and so the same outcomes,
    counters, models and stored clauses.  The lockstep case in
    [test/test_sat.ml] checks these after every step of scripted
    sessions.  A change that moves the search must say so and refresh
    every pinned counter. *)

type t

type lit = int
(** Literal encoding: [2*v] is the positive literal of variable [v],
    [2*v+1] the negative one. *)

val pos : int -> lit
val neg : int -> lit
val lit_var : lit -> int
val lit_sign : lit -> bool
(** [true] for positive literals. *)

val lit_not : lit -> lit

val create : unit -> t

val new_var : t -> int

val n_vars : t -> int
val n_clauses : t -> int
val n_conflicts : t -> int

val n_learned : t -> int
(** Total conflict-learned lemmas so far (unit learns included).
    Monotone across {!solve} calls and unaffected by {!simplify}'s
    database rebuild — it counts lemmas derived, not lemmas currently
    retained. *)

val add_clause : t -> lit list -> unit
(** May be called only at decision level 0 (before or between
    [solve] calls).  An empty clause makes the instance trivially
    unsatisfiable.  Literals are rewritten through any equivalent-
    literal substitution left by {!simplify}; mentioning a variable
    removed by variable elimination raises [Invalid_argument]. *)

val simplify :
  ?elim:bool ->
  ?deadline:float ->
  ?cancel:bool Atomic.t ->
  t ->
  unit
(** Run the pre/inprocessing pipeline ({!Rtlsat_simplify.Simp}) over
    the whole clause database — subsumption, self-subsuming
    resolution, failed-literal probing, binary-implication SCC
    collapsing and (with [elim:true]) bounded variable elimination —
    then rebuild the solver from the simplified formula.  VSIDS
    activities and saved phases survive.

    [elim] defaults to [false]: eliminating a variable is only sound
    while no later [add_clause] or [solve ~assumptions] mentions it,
    so callers opt in for one-shot solving.  Models returned by later
    [solve] calls are automatically extended over substituted and
    eliminated variables, so {!value} and {!model} are unaffected.

    [deadline] (monotonic clock, as in {!solve}) and [cancel] are
    polled between passes and every few thousand clause visits inside
    them: past the deadline or once cancelled, the pipeline stops early
    and the solver is rebuilt from the partly simplified, still
    equisatisfiable formula, so a following {!solve} with the same
    deadline returns [Timeout] promptly. *)

val simp_stats : t -> Rtlsat_simplify.Simp.stats
(** Cumulative pass counters over every {!simplify} call on this
    solver (including inprocessing runs from inside {!solve}). *)

val rep_lit : t -> lit -> lit
(** Rewrite a literal through the current equivalent-literal
    substitution; the identity before any {!simplify}. *)

val fold_clauses : ('a -> lit array -> 'a) -> 'a -> t -> 'a
(** Fold over the stored clauses (original and learned), in insertion
    order.  Unit clauses are not stored — see {!root_units}. *)

val root_units : t -> lit list
(** Literals asserted at decision level 0 (unit input clauses and
    learned units), in assignment order. *)

val root_conflict : t -> bool
(** The clause database is already unsatisfiable at decision level 0.
    This can hold without any stored clause recording the
    contradiction: {!add_clause} discards a clause whose literals are
    all root-false after setting this flag.  Exporters must check it —
    {!root_units} + {!fold_clauses} alone under-constrain the
    formula. *)

type outcome =
  | Sat
  | Unsat
  | Timeout

val solve :
  ?deadline:float ->
  ?assumptions:lit list ->
  ?inprocess:int ->
  ?cancel:bool Atomic.t ->
  ?obs:Rtlsat_obs.Obs.t ->
  t ->
  outcome
(** [deadline] is an absolute instant compared against the monotonic
    clock ({!Rtlsat_obs.Mono.now}); the solver polls it and returns
    [Timeout] when exceeded.  [cancel] is polled at the same step gate
    (every 256 steps); once it is set, this solver returns [Timeout]
    promptly.
    With [assumptions], [Unsat] means unsatisfiable under them
    (assumption literals are rewritten through the substitution; an
    assumption on an eliminated variable raises [Invalid_argument]).
    [inprocess] > 0 re-runs {!simplify} (without elimination) at the
    first restart after every [inprocess] conflicts; 0 (the default)
    disables inprocessing.  [obs] (default {!Rtlsat_obs.Obs.disabled})
    receives [decide]/[conflict]/[restart]/[done] trace events and
    periodic heartbeats (decisions, conflicts and propagations, the
    trail literals dequeued), feeding the [rtlsat sat] flight recorder;
    observation never changes the search. *)

val value : t -> int -> bool
(** Model value of a variable after [solve] returned [Sat]. *)

val model : t -> bool array
