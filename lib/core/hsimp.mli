(** Pre/inprocessing over the hybrid clause database.

    Subsumption lifted to bound atoms by interval inclusion — an atom
    [a] implies an atom [b] when every assignment satisfying [a]
    satisfies [b] (e.g. [x <= 5] implies [x <= 9]), so a clause all of
    whose atoms imply into another clause subsumes it.  Self-subsuming
    strengthening drops an atom [b] from a clause [D] when some other
    clause [C] has an atom incompatible with [b] and the rest of [C]
    implies into [D \ {b}] — learned predicate relations, being root
    clauses, act as subsumers and strengtheners here.  Clauses
    satisfied under the root bounds are deleted and atoms falsified
    under them removed.

    Only non-root clauses are ever deleted or strengthened; root
    clauses (problem clauses and learned predicate relations)
    participate solely as subsumers, so [State.grow] and the session
    interface stay sound.  The pass must run at decision level 0;
    everything it removes is implied by the remaining database, so
    learned-clause invariants (each lemma implied by clauses + theory)
    are preserved.

    {b Incremental across calls.}  A session runs the pass before
    every call, over a database that is mostly unchanged since the
    last pass.  [State.n_clean] records the clean prefix: the first
    [n_clean] clauses were all present, and every pair of them tested
    without firing, in the last round of the previous pass.  That
    premise holds only when the pass reached its fixpoint (its last
    round changed nothing); a pass stopped by the 3-round cap with
    changes pending leaves the prefix empty.  Clauses appended since —
    learned clauses, [State.grow]'s frame clauses, predicate
    relations — lie outside the prefix by construction, and
    [State.compact_clauses] (used by [State.reduce_clauses]) keeps the
    count right when it drops clauses.  Within a pass a clause is
    {e changed} once root-bound cleaning or strengthening rewrites it.

    Whether C subsumes or strengthens D depends only on the two
    clauses' contents (and on D not being root), and dropping atoms
    from D never makes either test succeed.  So a test can fire only
    when C lies outside the prefix or has changed, or D lies outside
    the prefix; all other tests are skipped, together with every
    clean C that has a variable in no new non-root clause (a D that C
    can subsume or strengthen contains all of C's variables).  After
    the first round, only clauses that changed or strengthened
    something since they were last processed are processed again.

    {b Output contract.}  Skipped tests are exactly tests that would
    fail, so every call leaves the same database as testing every
    pair: the same clauses (order and contents), root flags,
    occurrence lists and {!stats}.  The search that follows is
    therefore unchanged.  [test/hsimp_ref.ml] keeps the full-testing
    pass, and a differential suite in [test/test_hsimp.ml] holds the
    two to this over random multi-call session histories.

    {b In place.}  The pass reads each clause it tests out of the
    clause arena into two int arrays it reuses
    ([State.read_clause]).  Cleaning and strengthening shorten a
    clause's slot ([State.drop_atoms]); the final compaction slides the
    slots down over the deleted clauses and the gaps. *)

type stats = {
  mutable subsumed : int;      (** clauses deleted (incl. root-satisfied) *)
  mutable strengthened : int;  (** atoms removed from surviving clauses *)
}

val run : State.t -> stats
(** Simplify the clause database in place (the arena is compacted,
    occurrence lists rebuilt) and set [State.n_clean].
    Requires decision level 0.  The pair tests allocate nothing: the
    per-clause flags and per-variable marks live in the state, and
    the pass's two clause buffers grow only with the longest clause
    read.
    Sound mid-suspension: it never manufactures an empty clause, so a
    pending root conflict still surfaces through propagation. *)
