(** Cross-engine differential oracle.

    One fuzz case is decided by all six engines — the four HDPLL
    configurations (±S, ±P), the eager bit-blast CDCL translation and
    the lazy CDP baseline — and the answers are cross-checked:

    - all non-timeout verdicts must agree;
    - every [Sat] model is replayed through the cycle-accurate
      simulator ({!Rtlsat_bmc.Bmc.witness_ok}, performed inside
      {!Rtlsat_harness.Engines.run_instance}; a model that does not
      replay surfaces as [Witness_rejected]);
    - a unanimous [Unsat] is checked against an independent
      certificate: when the instance's input space fits the budget the
      oracle simulates {e every} input matrix (a complete refutation
      check), otherwise it samples the space, looking for a violating
      trace no engine admitted exists.

    Timeouts never count as disagreement; an instance where every
    engine times out is reported as such and carries no certificate. *)

module Engines = Rtlsat_harness.Engines

type failure =
  | Disagree
      (** at least one engine answered [Sat] and another [Unsat] *)
  | Witness_rejected of Engines.engine * string
      (** the engine's model failed simulator replay *)
  | Unsat_refuted of int list list
      (** all engines said [Unsat], yet simulating the carried input
          matrix (one row per frame, values in [Ir.inputs] order)
          violates the property *)

type certificate =
  | Witness_replay       (** Sat: model replayed through the simulator *)
  | Exhaustive of int    (** Unsat: all [n] input matrices simulated *)
  | Sampled of int       (** Unsat: [n] random matrices simulated *)
  | No_certificate       (** every engine timed out *)

type outcome = {
  verdicts : (Engines.engine * Engines.verdict) list;
  failure : failure option;
  cert : certificate;
}

val default_engines : Engines.engine list
(** All six engines. *)

val violated : Rtlsat_bmc.Bmc.instance -> int list list -> bool
(** [violated inst matrix] simulates the source circuit from reset
    under the per-frame input values ({!Rtlsat_bmc.Bmc.violated}) and
    reports whether the property is violated in the sense of the
    instance's semantics.  Used both by the certificate search and by
    tests. *)

val check :
  ?engines:Engines.engine list ->
  ?req:Rtlsat_harness.Req.t ->
  ?cert_budget:int ->
  ?seed:int ->
  Case.t ->
  outcome
(** Decide the case with every engine and cross-check.  [req] (default
    a 10 s-budget request with pre/inprocessing on) is the request
    context of every engine run ({!Engines.run_instance}) — its
    [timeout] bounds each run, its [simplify]/[inprocess] select
    pre/inprocessing, so the campaign cross-checks the engines
    {e with} simplification unless told otherwise.  [cert_budget]
    (default 4096) is the number of simulated input matrices —
    exhaustive when the whole space fits, sampled otherwise; [seed]
    (default 0) determinizes the sampling. *)

val describe : outcome -> string
(** One-line human summary, e.g.
    ["hdpll=S hdpll+s=S ... lazy-cdp=U [disagreement]"]. *)
