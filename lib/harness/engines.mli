(** Every satisfiability engine of the evaluation: the four HDPLL
    configurations, the eager Boolean translation (UCLID stand-in) and
    the lazy combined decision procedure (ICS stand-in).  Every
    satisfiable answer is validated by replaying the witness through
    the RTL simulator.

    Two entry points, two types.  {!run_instance} is a {e one-shot}
    solve of a pre-unrolled BMC instance: the violation selector is a
    unit clause and destructive preprocessing (variable elimination on
    the bit-blast CNF) is allowed.  A {!session} is a {e warm
    incremental} context over a frame-incremental unroll, decided one
    bound at a time with {!sweep_step}: each bound's selector is an
    assumption, so carried learned clauses and the unroll prefix survive
    across calls — the seam the [rtlsat serve] daemon keeps warm.  Both
    thread one {!Req.t} request context. *)

type engine =
  | Hdpll        (** HDPLL [9] *)
  | Hdpll_s      (** + structural decision strategy (§4) *)
  | Hdpll_sp     (** + structural decisions + predicate learning *)
  | Hdpll_p      (** + predicate learning only (Table 1) *)
  | Bitblast     (** Boolean translation + CDCL (UCLID stand-in) *)
  | Lazy_cdp     (** lazy CDP (ICS stand-in) *)

val engine_name : engine -> string
(** ["hdpll"], ["hdpll+s"], ["hdpll+s+p"], ["hdpll+p"], ["bitblast"],
    ["lazy-cdp"]. *)

val engine_of_name : string -> engine option
(** Inverse of {!engine_name}. *)

val all_engines : engine list
(** All six engines: the four HDPLL configurations, then the two
    baselines. *)

val table2_engines : engine list
(** The five columns of Table 2, in order. *)

type verdict =
  | Sat
  | Unsat
  | Timeout
  | Abort of string
      (** engine failure — e.g. a witness that does not replay *)

val verdict_symbol : verdict -> string
(** ["S"], ["U"], ["-to-"], ["-A-"] as in the paper's tables. *)

type run = {
  verdict : verdict;
  time : float;           (** seconds, encode included *)
  relations : int;        (** predicate relations learned (HDPLL+P) *)
  learn_time : float;
  decisions : int;
  conflicts : int;
  stats : Rtlsat_core.Solver.stats option;
      (** full solver counters; [None] for the baseline engines *)
  metrics : Rtlsat_obs.Obs.snapshot option;
      (** observability snapshot; [None] unless the request carried an
          enabled [obs] handle *)
  witness : (Rtlsat_rtl.Ir.node * int) list list;
      (** the per-frame primary-input valuation of a [Sat] answer's
          replayed witness ({!Rtlsat_bmc.Bmc.witness}); empty for every
          other verdict *)
}

val run_instance : ?req:Req.t -> engine -> Rtlsat_bmc.Bmc.instance -> run
(** Solve a BMC instance with the given engine under the request
    context [req] (default {!Req.default}: 1200 s budget — the paper's
    limit — observability disabled, simplify and split on).  The
    budget runs from the call's start, so it covers encoding too.
    Satisfiable results are checked with {!Rtlsat_bmc.Bmc.witness_ok};
    failures become [Abort].  [req.obs] instruments the whole run —
    encoding included — and fills [run.metrics]; pass a fresh handle
    per run for per-run snapshots.  [req.dump_graph] (HDPLL engines
    only) exports the first [req.dump_graph_max] conflict implication
    graphs as DOT files into the given directory, which must exist.
    [req.split] (HDPLL engines only) enables stall-triggered
    interval-split decisions.  [req.simplify] preprocesses the
    engine's clause database before the search — the hybrid pass
    ({!Rtlsat_core.Hsimp}) for the HDPLL engines, the CNF pipeline
    ({!Rtlsat_simplify.Simp}, with variable elimination: one-shot
    solving makes it sound) for the bit-blast baseline; the lazy CDP
    ignores it.  [req.inprocess] > 0 re-simplifies every that many
    conflicts.  [req.cancel], once set, makes the engine return
    [Timeout] at its next step/fuel gate.  [req.on_learn] (HDPLL
    engines only) receives every conflict-learned clause of length
    ≤ 2. *)

type sweep_step = {
  sw_bound : int;
  sw_run : run;
  sw_carried_clauses : int;
      (** learned clauses already in the solver when this bound's call
          began.  Per-engine semantics: HDPLL engines report the
          session kernel's learned-clause database size at call entry;
          the bit-blast baseline reports the CDCL kernel's total
          conflict-learned lemmas so far ({!Rtlsat_sat.Cdcl.n_learned}
          — derivation count, monotone across inprocessing rebuilds);
          the lazy CDP re-solves from scratch and always reports 0 *)
  sw_carried_relations : int;
      (** predicate relations carried from earlier bounds (HDPLL+P) *)
}

type session
(** A warm incremental context: one frame-incremental unroll and the
    engine's kernel — a {!Rtlsat_core.Solver.Session} for the HDPLL
    engines, the CDCL solver behind the bit-blast encoding, nothing for
    the lazy CDP, which re-solves every bound from scratch. *)

val session :
  req:Req.t ->
  ?semantics:Rtlsat_bmc.Bmc.semantics ->
  ?free_init:bool ->
  engine ->
  Rtlsat_rtl.Ir.circuit ->
  prop:Rtlsat_rtl.Ir.node ->
  session
(** Build a session.  Policy — [obs], [cancel] and the solver knobs
    ([split]/[simplify]/[inprocess]/[learn_threshold]/[on_learn]) — is
    taken from [req] and fixed for the session's lifetime;
    [dump_graph] is ignored (every call would restart the file
    numbering).  [semantics] and [free_init] shape the unroll as in
    {!Rtlsat_bmc.Bmc.sweep}; witnesses of a [free_init] session replay
    from the model's initial state. *)

val sweep_step : req:Req.t -> session -> bound:int -> sweep_step
(** Decide one bound: extend the unroll to [bound], pose the bound's
    violation selector (as an assumption for the HDPLL engines and the
    bit-blast baseline) and solve within [req.timeout] of this call's
    start.  Only the budget is read from [req], so a daemon can give
    every request its own deadline over one warm session.  The
    bit-blast baseline preprocesses its CNF on the session's first
    bound only ({!Rtlsat_baselines.Bitblast.simplify}), with variable
    elimination {e off}: the encoding grows and literals are assumed
    per bound, which elimination does not survive. *)

val run_sweep :
  ?req:Req.t ->
  ?semantics:Rtlsat_bmc.Bmc.semantics ->
  engine ->
  Rtlsat_rtl.Ir.circuit ->
  prop:Rtlsat_rtl.Ir.node ->
  bounds:int list ->
  sweep_step list
(** Sweep a list of bounds through {e one} {!session}: learned clauses,
    predicate relations and heuristic state survive from bound to
    bound.  [req.timeout] is a per-bound budget in seconds; [req.cancel]
    cancels the sweep cooperatively mid-bound.  With [req.obs] enabled,
    each bound points the heartbeat context at itself and is bracketed
    by [sweep.bound] / [sweep.result] trace events, so a live monitor
    can tell which bound a long sweep is stuck on. *)

val sweep_verdict : sweep_step list -> verdict
(** The verdict of a whole sweep, as the ledger records it: [Sat] if
    any bound is [Sat], else [Timeout] if any timed out, else the first
    [Abort], else [Unsat]. *)

val op_counts : Rtlsat_bmc.Bmc.instance -> int * int
(** (arith, bool) operator counts of the unrolled instance —
    columns 3–4 of Table 2. *)
