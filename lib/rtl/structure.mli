(** Structural analyses over {!Ir} circuits.

    Implements the pre-processing of §3 step 1 (level ordering by
    distance from primary inputs and extraction of the predicate logic
    that controls the data-path) and the fanout statistics used to
    seed the decision heuristics of §2.4 and §4. *)

open Ir

val levels : circuit -> int array
(** [levels c] maps node id to combinational level: inputs, constants
    and registers are level 0; every other node is one more than the
    maximum of its fanins. *)

val fanout_counts : circuit -> int array
(** Number of combinational fanout references per node id (register
    next-state edges included). *)

val extend_levels : int array -> circuit -> int array
val extend_fanout : int array -> circuit -> int array
(** Incremental {!levels} / {!fanout_counts}: given the result for the
    circuit's first [Array.length a] nodes, return the result for the
    whole circuit, visiting only the nodes added since.  A new array
    when the circuit grew (the argument is left untouched), the
    argument itself otherwise.  Exact as long as no register counted
    earlier has since been connected to its next-state input, which
    holds for the combinational circuits of an extending unroll. *)

val coi : ?through_regs:bool -> circuit -> node list -> bool array
(** [coi c roots] marks the cone of influence of [roots]: every node
    whose value can affect a root.  With [through_regs] (default
    [true]) the cone follows register next-state inputs. *)

val predicate_roots : circuit -> node list
(** Predicate signals of §3: Boolean inputs that control word-level
    operators (mux selects) and comparator outputs — "all operations
    in RTL that return a Boolean value and interact with the
    data-path". *)

val predicate_cone : circuit -> bool array
(** The Boolean control logic feeding the predicate roots: the
    Boolean-width transitive fanin of {!predicate_roots} (cut at
    non-Boolean nodes, inputs and registers). *)

val candidate_gates : circuit -> node list
(** Gates eligible for static predicate learning (§3 step 2): Boolean
    gates and comparators in the predicate cone, in increasing level
    order. *)

val op_counts : circuit -> int * int
(** [(arith, bool)] operator counts, mirroring columns 3–4 of
    Table 2: word-level operators vs Boolean gates (inputs, constants
    and registers are not counted). *)
