(** First-class engine modules.

    Every satisfiability engine of the evaluation — the four HDPLL
    configurations, the eager bit-blast translation and the lazy CDP
    baseline — implements one module type {!S} with explicit
    {!caps} capability declarations and a uniform
    [create / session / solve / sweep_step / cancel / snapshot]
    surface.  Callers dispatch through {!of_id} (or iterate {!all})
    instead of pattern-matching the engine variant, and thread one
    {!Req.t} request context instead of a pile of optional arguments.

    The split between [create]+[solve] (one-shot) and
    [session]+[sweep_step] (incremental) is semantic, not cosmetic:
    a one-shot context asserts the violation selector as a unit clause
    and may run destructive preprocessing (variable elimination on the
    bit-blast CNF); an incremental context keeps the encoding growable
    and poses each bound's selector as an assumption, so carried
    learned clauses and the unroll prefix survive across calls — the
    seam the [rtlsat serve] daemon keeps warm. *)

type id = Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p | Bitblast | Lazy_cdp

val name_of : id -> string
(** ["hdpll"], ["hdpll+s"], ["hdpll+s+p"], ["hdpll+p"], ["bitblast"],
    ["lazy-cdp"]. *)

val of_name : string -> id option
(** Inverse of {!name_of}. *)

val all_ids : id list
(** All six engines, in Table 2 column order then the ±P variant. *)

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
}

type sweep_step = {
  sw_bound : int;
  sw_run : run;
  sw_carried_clauses : int;
      (** learned clauses carried into this bound's call — see the
          per-engine semantics on {!Engines.sweep_step} *)
  sw_carried_relations : int;
      (** predicate relations carried from earlier bounds (HDPLL+P) *)
}

(** What an engine module actually supports.  Declared statically and
    checked against behaviour by [test/test_engine.ml]. *)
type caps = {
  supports_sessions : bool;
      (** [session] keeps solver state warm across [sweep_step] calls
          (learned clauses / activities survive); engines without it
          still expose the uniform surface but re-solve from scratch *)
  supports_assumptions : bool;
      (** per-call queries are posed as assumption literals (MiniSat
          style) rather than baked into the formula *)
  exports_learned_clauses : bool;
      (** honors [Req.on_learn]: short conflict clauses are exported
          for cross-worker exchange *)
  honors_simplify : bool;
      (** [Req.simplify] / [Req.inprocess] select a real
          pre/inprocessing pipeline *)
  honors_split : bool;
      (** [Req.split] toggles interval-split decisions *)
}

val caps_of : id -> caps

(** {1 Helpers shared by the engines and the parallel drivers} *)

val solver_options : id -> Req.t -> Rtlsat_core.Solver.options
(** The hybrid kernel options of a request: the engine's preset
    ({!Rtlsat_core.Solver.hdpll} … [hdpll_p]) with the request's
    [obs], [cancel] and solver knobs ([learn_threshold], [dump_graph],
    [dump_graph_max], [split], [simplify], [inprocess], [on_learn]).
    The options deadline stays [infinity]: every caller passes its
    per-call deadline to {!Rtlsat_core.Solver.Session.solve}.
    @raise Invalid_argument for [Bitblast] and [Lazy_cdp]. *)

val encode_instance :
  Rtlsat_obs.Obs.t -> Rtlsat_bmc.Bmc.instance -> Rtlsat_constr.Encode.t
(** One-shot hybrid encoding of a BMC instance, under the handle's
    Encode span: the unrolled circuit with its violation selector
    asserted as a unit clause. *)

val replay : Rtlsat_bmc.Bmc.instance -> (Rtlsat_rtl.Ir.node -> int) -> verdict
(** Check a model by replaying its witness through the RTL simulator
    ({!Rtlsat_bmc.Bmc.witness_ok}): [Sat] when it replays,
    [Abort "witness failed replay"] when it does not. *)

(** The uniform engine surface.

    Contexts come in two modes.  [create] builds a {e one-shot}
    context over a pre-unrolled BMC instance (violation asserted as a
    unit clause; destructive preprocessing allowed); decide it with
    [solve].  [session] builds a {e warm incremental} context over a
    frame-incremental unroll; decide one bound at a time with
    [sweep_step].  Calling [solve] on an incremental context or
    [sweep_step] on a one-shot one raises [Invalid_argument].

    Request threading: identity and policy — [obs], [cancel], solver
    knobs ([split]/[simplify]/[inprocess]/[learn_threshold]/
    [on_learn]) — are taken from the {e creation} request and fixed
    for the context's lifetime (an incremental session bakes them into
    its kernel).  Budget — [timeout]/[deadline] — is taken from the
    request passed to each [solve]/[sweep_step] call, so a daemon can
    give every request its own deadline over one warm session. *)
module type S = sig
  val id : id
  val name : string
  val caps : caps

  type session

  val create : req:Req.t -> Rtlsat_bmc.Bmc.instance -> session
  (** One-shot context: encode the instance (under [req.obs]'s Encode
      span) and assert the violation selector as a unit clause. *)

  val session :
    req:Req.t ->
    ?semantics:Rtlsat_bmc.Bmc.semantics ->
    Rtlsat_rtl.Ir.circuit ->
    prop:Rtlsat_rtl.Ir.node ->
    session
  (** Warm incremental context: the circuit is unrolled
      frame-incrementally ({!Rtlsat_bmc.Bmc.sweep}) and the underlying
      solver persists across [sweep_step] calls. *)

  val solve : req:Req.t -> session -> run
  (** Decide a [create] context.  The effective deadline is
      {!Req.deadline_from} of the context's creation instant, so the
      budget covers encoding too (as it always has). *)

  val sweep_step : req:Req.t -> session -> bound:int -> sweep_step
  (** Decide one bound of a [session] context: extend the unroll to
      [bound], pose the bound's violation selector (as an assumption
      where [caps.supports_assumptions]) and solve within
      {!Req.deadline_from} of this call's start. *)

  val cancel : session -> unit
  (** Set the context's cooperative-cancel flag (the creation
      request's [cancel]); any in-flight or future call on this
      context returns [Timeout] at its next step gate. *)

  val snapshot : session -> Rtlsat_obs.Obs.snapshot option
  (** Current observability snapshot of the creation request's handle;
      [None] when it is disabled. *)
end

val of_id : id -> (module S)
val all : (module S) list
(** One module per engine, in {!all_ids} order. *)
