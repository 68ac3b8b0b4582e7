(** Eager Boolean translation: bit-blast the RTL netlist to CNF and
    solve with the CDCL engine.

    This is "the most popular method of solving a satisfiability
    problem on RTL" from the paper's introduction, and our stand-in
    for UCLID's eager SAT-based approach in Table 2 — everything,
    including the data-path, is pushed into a Boolean SAT solver
    through ripple-carry adders, borrow-chain comparators and per-bit
    multiplexers.

    {b Constant folding.}  A gate with a constant, repeated or
    complementary input creates no variable and no clause: it returns
    an existing literal, or the literal of the constant-true variable
    or its negation.  [and2] with a false input or [a = ¬b] is false,
    with a true input it is the other input, and [and2 a a] is [a];
    [or2] is the dual.  [xor2] with a false input is the other input,
    with a true input its negation, [xor2 a a] is false and
    [xor2 a ¬a] true.  A mux with a constant select is that arm, a
    mux with equal arms is that arm, and [sel ? 1 : 0] is [sel]
    ([sel ? 0 : 1] is [¬sel]).  Every word operator is built from
    these gates and inherits the folding, so [x + 0], [x - 0],
    multiplication by a power of two, [x = x], [x < 0] and an
    interval on a constant node add nothing beyond their inputs.
    Only a gate over two unrelated literals gets a fresh variable and
    its Tseitin clauses. *)

open Rtlsat_rtl

type t

val encode : Ir.circuit -> t
(** @raise Invalid_argument on a sequential circuit. *)

val extend : t -> unit
(** Incremental re-blast after the circuit grew: encodes exactly the
    appended nodes into the same CDCL solver, whose learned clauses
    survive.  Mirrors [Encode.extend] so the eager baseline supports
    the same session interface as the hybrid engines. *)

val solver : t -> Rtlsat_sat.Cdcl.t

val bool_lit : t -> Ir.node -> Rtlsat_sat.Cdcl.lit
(** The CNF literal of a Boolean node — e.g. to pass a violation
    selector as an assumption.
    @raise Invalid_argument on a word node. *)

val assume_bool : t -> Ir.node -> bool -> unit

val assume_interval : t -> Ir.node -> Rtlsat_interval.Interval.t -> unit
(** Encodes the two comparisons against constants as circuits. *)

type result =
  | Sat
  | Unsat
  | Timeout

val simplify :
  ?elim:bool -> ?deadline:float -> ?cancel:bool Atomic.t -> t -> unit
(** Preprocess the CNF with {!Rtlsat_sat.Cdcl.simplify}, once per
    encoding: the first call runs the pass, every later call does
    nothing.  Clauses that {!extend} or the [assume_*] functions add
    afterwards go straight into the live watched database, rewritten
    through the first pass's equivalent-literal substitution, and are
    never preprocessed; a sweep therefore pays the pass once and not
    per bound.  ([solve ~inprocess] is separate and still rewrites the
    whole database at its restarts.)

    [elim:true] (bounded variable elimination) is only sound for
    one-shot solving — keep it off (the default) when the encoding
    will later {!extend} or assume literals.  [node_value] keeps
    working either way: Sat models are extended back over substituted
    and eliminated variables.  [deadline] and [cancel] cut the pass
    short as in {!Rtlsat_sat.Cdcl.simplify}; a pass cut short still
    counts as the encoding's one pass. *)

val preprocessed : t -> bool
(** {!simplify} has been called on this encoding, so further calls
    run no pass. *)

val simp_stats : t -> Rtlsat_simplify.Simp.stats
(** Cumulative simplification counters of the underlying solver. *)

val solve :
  ?deadline:float ->
  ?assumptions:Rtlsat_sat.Cdcl.lit list ->
  ?inprocess:int ->
  ?cancel:bool Atomic.t ->
  t ->
  result
(** [assumptions] are decided before the free search (MiniSat-style);
    [Unsat] then means unsat under them and the solver stays usable.
    [inprocess] > 0 re-simplifies the clause database (without
    elimination) every that many conflicts.  [cancel] makes the
    underlying CDCL loop return [Timeout] at its next step gate. *)

val to_dimacs : t -> string
(** The current CNF (including assumptions added so far) in DIMACS
    format, for cross-checking with external SAT solvers. *)

val node_value : t -> Ir.node -> int
(** Word value of a node in the model after [solve] returned [Sat]. *)

val model_env : t -> Rtlsat_rtl.Ir.node -> int
(** Alias of {!node_value} in function position for witness replay. *)
