(** A fuzz case: a circuit, the safety property under test and the BMC
    parameters, with a textual round-trip so failing cases can be
    committed to [test/corpus/] and replayed by [dune runtest].

    The serialized form is the {!Rtlsat_rtl.Text} netlist format plus
    one directive comment line

    {v
    # fuzz-case bound=3 semantics=any
    v}

    and the convention that the output port named ["prop"] holds the
    property (falling back to the first output port).  [semantics] is
    one of [final], [any], [never] (see {!Rtlsat_bmc.Bmc.semantics});
    both fields default to [bound=1]/[final] when the directive is
    absent, so any plain netlist with a Boolean output is a valid
    case. *)

open Rtlsat_rtl

type t = {
  circuit : Ir.circuit;
  prop : Ir.node;         (** width-1 signal expected to hold (be 1) *)
  bound : int;
  semantics : Rtlsat_bmc.Bmc.semantics;
}

val make :
  Ir.circuit -> prop:Ir.node -> bound:int -> semantics:Rtlsat_bmc.Bmc.semantics -> t
(** @raise Invalid_argument if [prop] is not Boolean or [bound < 1]. *)

val instance : t -> Rtlsat_bmc.Bmc.instance
(** Unroll into a BMC instance (see {!Rtlsat_bmc.Bmc.make}). *)

val semantics_name : Rtlsat_bmc.Bmc.semantics -> string
(** ["final"], ["any"], ["never"]; ["first"] for [First], which no
    case uses and the parser rejects. *)

val to_string : t -> string
(** Directive line + canonical {!Rtlsat_rtl.Text} form; the property
    node is exported as output port ["prop"]. *)

val of_string : string -> t
(** @raise Failure on malformed netlists, unknown directives, or a
    missing/non-Boolean property output. *)

val of_file : string -> t
(** @raise Sys_error on I/O failure, [Failure] as {!of_string}. *)
