(** The hybrid DPLL solver (Algorithm 1), with the paper's two
    optional strategies: the structural decision strategy of §4
    ([structural], "+S" in Table 2) and static predicate learning of
    §3 ([predicate_learning], "+P").

    The solver decides Boolean variables and — beyond the paper, which
    decides Booleans only (§2) — bisects word intervals when interval
    propagation degenerates into a one-unit-per-sweep crawl ([split]).
    A shave-streak detected inside {!State.assert_atom} suspends the
    propagation fixpoint; the solver pushes an interval literal
    ([v ≥ mid+1] or [v ≤ mid]) as a decision on the hybrid trail, so
    conflict analysis learns clauses over split literals and backjumps
    across them exactly as for Boolean decisions.  Conflicts are
    analyzed over the hybrid implication graph; and when all Boolean
    variables are assigned and the split queue is empty, the solution
    box is certified by the FME/Omega oracle.

    Restriction: multi-atom clauses of the *input* problem must be
    purely Boolean (the RTL encoder guarantees this; learned hybrid
    clauses are unconstrained). *)

type options = {
  structural : bool;            (** §4 justification decisions (+S) *)
  predicate_learning : bool;    (** §3 static learning (+P) *)
  learn_threshold : int option; (** cap on learned relations; default
                                    [min #candidates 2000] *)
  deadline : float;             (** absolute wall-clock instant *)
  restarts : bool;              (** Luby restarts *)
  split : bool;                 (** interval-split decisions on ICP
                                    shave-streaks; default on.  Off
                                    reproduces the paper's
                                    Boolean-only decision rule *)
  simplify : bool;              (** pre-search {!Hsimp} pass over the
                                    clause database (subsumption by
                                    interval inclusion, self-subsuming
                                    strengthening); default on.  Runs
                                    after predicate learning so the
                                    learned relations participate, and
                                    before every session call *)
  inprocess : int;              (** > 0: re-run the {!Hsimp} pass at
                                    the first restart after every this
                                    many conflicts; default 0 (off) *)
  seed_fanout : bool;           (** seed activities with fanout counts *)
  random_seed : int option;     (** randomized decision strategy (the
                                    baseline the paper's §5.1 compares
                                    against); overrides activities *)
  collect_learned : bool;       (** return the learned clauses *)
  obs : Rtlsat_obs.Obs.t;       (** observability handle (span timers,
                                    histograms, trace sink, progress);
                                    default {!Rtlsat_obs.Obs.disabled},
                                    which costs one branch per
                                    instrumentation site and never
                                    changes solver behaviour *)
  dump_graph : string option;   (** conflict forensics: when [Some dir],
                                    export the hybrid implication graph
                                    of the first [dump_graph_max]
                                    conflicts as GraphViz DOT files
                                    [conflict_NNNN.dot] in [dir], which
                                    must already exist *)
  dump_graph_max : int;         (** cap on exported conflict graphs;
                                    default 10 *)
  cancel : bool Atomic.t;       (** cooperative cancellation: when set,
                                    the solver returns [Timeout] at the
                                    next step-count gate (the same
                                    gates that check [deadline]).  The
                                    default flag is shared and never
                                    set *)
  on_learn : (Rtlsat_constr.Types.clause -> unit) option;
                                (** called for every conflict-learned
                                    clause of length ≤ 2, from the
                                    learning site.  Learned clauses are
                                    implied by the clause database and
                                    theory alone (assumptions appear
                                    negated, never resolved away), so
                                    they are valid in any solver over
                                    the same problem.  Must be cheap
                                    and must not raise *)
}

val default : options

val hdpll : options
(** Plain HDPLL [9]: no structure, no static learning. *)

val hdpll_s : options
(** HDPLL + structural decisions. *)

val hdpll_sp : options
(** HDPLL + structural decisions + predicate learning. *)

val hdpll_p : options
(** HDPLL + predicate learning only (Table 1 configuration). *)

type result =
  | Sat of int array   (** variable → value, a full model *)
  | Unsat
  | Timeout

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  learned : int;
  jconflicts : int;
  final_checks : int;
  splits : int;         (** interval-split decisions taken *)
  relations : int;      (** static predicate relations learned *)
  learn_time : float;   (** static learning seconds *)
  solve_time : float;   (** total seconds *)
}

type outcome = {
  result : result;
  stats : stats;
  learned_clauses : Rtlsat_constr.Types.clause list;
      (** conflict-learned and statically-learned clauses, in learning
          order; empty unless [collect_learned] *)
}
(** The run's per-phase timings, histograms and counters are
    [Obs.snapshot] of the [obs] handle, taken by whoever wants them. *)

val solve : ?options:options -> Rtlsat_constr.Encode.t -> outcome
(** Decide the encoded RTL problem.  A one-shot solve is the first
    call of a fresh {!Session}: [(Session.solve (Session.create
    ?options enc)).outcome], so it reports the [session.creates] /
    [session.solves] counters and the [session.create] / [solve.begin]
    trace events like any session.  Queries under assumptions go
    through {!Session.solve}. *)

val solve_problem : ?options:options -> Rtlsat_constr.Problem.t -> outcome
(** Decide a bare constraint problem (no netlist), as a one-call
    {!Session.of_problem} session: the structural strategy and
    predicate learning are unavailable and silently disabled. *)

(** Persistent solver sessions: one kernel across many [solve] calls.

    Learned clauses, predicate relations, VSIDS activities, saved
    phases and split nominations survive between calls.  Constraints
    are append-only — push them with {!Session.add_clause} /
    {!Session.add_atom} or by appending to the underlying problem or
    encoder; the next [solve] syncs the kernel ({!State.grow}), which
    is sound because variable numbering is append-only.  Per-call
    queries go in as [assumptions], decided at levels 1..k of the
    search and popped when the call returns.

    Lemma retention: {e every} learned clause carries over.  Conflict
    analysis resolves only through reasons, never through decisions,
    so an assumption contributing to a conflict appears {e negated} in
    the learned clause (it is "guarded"); each lemma is therefore
    implied by the clause database and the theory alone and stays
    valid for every later call.

    Sessions are the only way the kernel is set up and driven: the
    one-shot {!solve} / {!solve_problem} are one-call sessions. *)
module Session : sig
  type session

  type solve_result = {
    outcome : outcome;
        (** result + {e per-call} stats (deltas of the kernel's
            cumulative counters; [solve_time] is this call's) *)
    cumulative : stats;  (** running totals across the session *)
    carried_clauses : int;
        (** learned clauses already in the database when the call
            started *)
    carried_relations : int;
        (** predicate relations learned by an earlier call *)
    n_solves : int;  (** 1-based index of this call *)
  }

  val create : ?options:options -> Rtlsat_constr.Encode.t -> session
  (** The encoder's problem and circuit stay owned by the caller and
      may keep growing (e.g. [Encode.extend] after unrolling more
      frames); each [solve] picks up whatever has been appended. *)

  val of_problem : ?options:options -> Rtlsat_constr.Problem.t -> session
  (** Bare-problem session: structural strategy and predicate learning
      silently disabled, as in {!solve_problem}. *)

  val add_clause : session -> Rtlsat_constr.Types.clause -> unit
  (** Append a clause to the underlying problem (multi-atom clauses
      must be purely Boolean, as for input problems). *)

  val add_atom : session -> Rtlsat_constr.Types.atom -> unit
  (** Append a unit clause. *)

  val problem : session -> Rtlsat_constr.Problem.t
  val state : session -> State.t

  val solve :
    ?assumptions:Rtlsat_constr.Types.atom array ->
    ?deadline:float ->
    session ->
    solve_result
  (** Sync appended constraints into the kernel, then decide under
      [assumptions].  [Unsat] with a nonempty [assumptions] means
      unsat under those assumptions; the session stays usable either
      way.  [deadline] overrides the session options' deadline for
      this call only. *)
end
