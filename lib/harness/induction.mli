(** k-induction on top of the BMC substrate — an unbounded extension
    of the paper's bounded workload (not in the paper; see DESIGN.md
    extensions).

    For increasing [k]: the base case asks for a violation within [k]
    frames from reset (plain BMC with [Any] semantics); the step case
    asks whether, from an {e arbitrary} state, [k] consecutive good
    frames can be followed by a bad one ([First] semantics at bound
    [k+1] over a free-initial-state unroll).  If the base is
    satisfiable the property is falsified; if the step is
    unsatisfiable the property holds in {e all} reachable states.  (No
    path-uniqueness strengthening: the method is sound but may answer
    [Unknown].)

    Each case is one warm {!Engines.session}, asked one bound deeper
    per [k]: the unroll grows by a frame and learned clauses carry
    over.  Every call runs under the request's budget, and every Sat
    answer of either case is replayed through the simulator. *)

type outcome =
  | Proved of int       (** inductive at depth k *)
  | Falsified of int    (** counterexample of that length from reset *)
  | Unknown             (** no verdict up to [max_k] *)
  | Stopped of int * Engines.verdict
      (** the base or step call at depth k ended in [Timeout] or
          [Abort], which ends the proof *)

val prove :
  ?req:Req.t ->
  ?max_k:int ->
  Rtlsat_rtl.Ir.circuit ->
  prop:Rtlsat_rtl.Ir.node ->
  outcome
(** [prove circuit ~prop] on the [Hdpll_sp] engine, with [req]
    defaulting to {!Req.default} (its budget applies to every base and
    step call) and [max_k] to 20. *)
