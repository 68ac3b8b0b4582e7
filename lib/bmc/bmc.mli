(** Bounded model checking of safety properties — the workload
    generator for §3.1 and §5.

    A safety property is a Boolean circuit signal that must be 1 in
    every reachable cycle.  [b01_1(10)]-style instances ask for a
    counterexample within 10 time frames; the instance is satisfiable
    iff the property can be violated. *)

open Rtlsat_rtl

type semantics =
  | Final  (** violation in the last frame exactly *)
  | Any    (** violation anywhere within the bound *)
  | Never
      (** bounded guarantee: the signal must hold at least once within
          the bound; the violation is "it stays low in every frame" *)
  | First
      (** the k-induction step: the property holds in every frame
          before the last and fails in the last *)

type instance = {
  source : Ir.circuit;
  prop : Ir.node;       (** width-1 signal expected to hold (be 1) *)
  bound : int;
  semantics : semantics;
  unrolled : Unroll.t;
  violation : Ir.node;  (** Boolean node of the unrolled circuit that
                            is 1 iff the property is violated *)
}

val make : Ir.circuit -> prop:Ir.node -> bound:int -> ?semantics:semantics -> unit -> instance
(** Unrolls the circuit and builds the violation objective.  Default
    semantics: [Final].

    Repeated calls on the {e same physical} circuit and property share
    one unroll, extended frame-incrementally — an ascending bound
    ladder no longer re-unrolls frames 0..k-1 at every bound.  Sharing
    is deliberately scoped: a different property, or a bound below the
    shared unroll's depth, gets a private exact-depth unroll, so an
    instance never encodes frames or violation logic it does not own
    and a batch run solves the same problem a solo run would.
    Repeated identical calls return the {e same} violation node rather
    than appending a fresh copy. *)

(** {2 Bound sweeps}

    One frame-incrementally extended unroll per (circuit, property),
    with a distinct violation selector node per bound.  A session-based
    solver poses each bound as the assumption literal of its selector,
    carrying learned clauses across the whole sweep. *)

type sweep

val sweep :
  Ir.circuit -> prop:Ir.node -> ?semantics:semantics -> ?free_init:bool -> unit -> sweep
(** Start a sweep (initially one frame is unrolled).  Default
    semantics: [Final].  With [free_init] the registers start from an
    arbitrary state ({!Unroll.unroll}), as in a k-induction step. *)

val sweep_unrolled : sweep -> Unroll.t
(** The shared unroll; grows as bounds are requested. *)

val sweep_violation : sweep -> bound:int -> Ir.node
(** The violation selector for [bound]: extends the unroll to [bound]
    frames if needed and memoizes the selector node (registered as
    output ["violation@<bound>"]).  @raise Invalid_argument if
    [bound < 1]. *)

val sweep_instance : sweep -> bound:int -> instance
(** A per-bound [instance] view over the shared unroll — e.g. to
    replay a witness through {!witness_ok}. *)

val violated : instance -> ?state:Sim.state -> (Ir.node * int) list list -> bool
(** [violated inst inputs] simulates the source circuit from [state]
    (default: reset) under one input valuation per frame, and tells
    whether the property is violated in the sense of the instance's
    semantics.  The one definition of every semantics over simulated
    values. *)

val witness : instance -> (Ir.node -> int) -> (Ir.node * int) list list option
(** [witness inst value] replays a model of the {e unrolled} circuit
    (queried per unrolled node by [value]) through the sequential
    simulator.  The simulation starts from the model's frame-0 register
    values wherever the unroll left the registers free, from reset
    elsewhere.  [Some inputs], the model's per-frame primary-input
    valuation, when the property is violated at the frames the
    semantics requires; [None] otherwise.  This validates SAT answers
    end-to-end against the RTL. *)

val witness_ok : instance -> (Ir.node -> int) -> bool
(** [witness_ok inst value] is [witness inst value <> None]. *)
