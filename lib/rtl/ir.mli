(** Word-level RTL netlist intermediate representation.

    A circuit is a DAG of operator nodes over unsigned words of fixed
    bit-width (Booleans are words of width 1), plus registers that cut
    combinational cycles.  All data-path semantics are unsigned; see
    the per-constructor comments for overflow behaviour.

    Nodes are created through {!Netlist} which enforces width
    discipline; the constructors here are the public pattern-matching
    surface used by the encoder, the bit-blaster, the simulator and
    the structural analyses. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type node = {
  id : int;            (** unique within the circuit, creation order *)
  width : int;         (** 1..61; Booleans have width 1 *)
  op : op;
  mutable name : string option;
}

and op =
  | Input                                   (** primary input *)
  | Const of int                            (** unsigned constant *)
  | Not of node                             (** Boolean negation *)
  | And of node array                       (** n-ary Boolean AND, n >= 2 *)
  | Or of node array                        (** n-ary Boolean OR, n >= 2 *)
  | Xor of node * node                      (** Boolean exclusive or *)
  | Mux of { sel : node; t : node; e : node }
      (** [sel ? t : e]; the RTL ITE of Definition 4.1 *)
  | Add of { a : node; b : node; wrap : bool }
      (** [wrap]: modulo [2^w], same width; otherwise width [w+1] *)
  | Sub of { a : node; b : node }           (** modulo [2^w] *)
  | Mul_const of { k : int; a : node }      (** exact: width grows *)
  | Cmp of { op : cmp; a : node; b : node } (** unsigned predicate *)
  | Concat of { hi : node; lo : node }      (** [hi · 2^w(lo) + lo] *)
  | Extract of { a : node; msb : int; lsb : int }
  | Zext of node                            (** zero extension *)
  | Shl of { a : node; k : int }            (** exact: width [w+k] *)
  | Shr of { a : node; k : int }            (** floor division by [2^k] *)
  | Bitand of node * node
  | Bitor of node * node
  | Bitxor of node * node
      (** bitwise word operators; handled by Boolean splitting
          (paper §6 future work) in the encoder *)
  | Reg of reg                              (** state element *)

and reg = { init : int; mutable next : node option }

type circuit = {
  cname : string;
  mutable ncount : int;
  mutable rev_nodes : node list;
  mutable rev_inputs : node list;
  mutable rev_regs : node list;
  mutable outputs : (string * node) list;
}

val is_bool : node -> bool
(** Width-1 test. *)

val max_value : node -> int
(** [2^width - 1]. *)

val nodes : circuit -> node list
(** All nodes in creation order (a topological order of the
    combinational edges). *)

val nodes_since : circuit -> int -> node list
(** [nodes_since c k]: the nodes with id [>= k], in creation order.
    Costs in proportion to those nodes, not to the circuit. *)

val inputs : circuit -> node list
val regs : circuit -> node list

val node_name : node -> string
(** The given name, or ["n<id>"]. *)

val reg_next : node -> node
(** Next-state input of a register.
    @raise Invalid_argument if the node is not a connected register. *)

val fanins : node -> node list
(** Combinational fanins (registers have none). *)

val pp_node : Format.formatter -> node -> unit
val pp_circuit : Format.formatter -> circuit -> unit
