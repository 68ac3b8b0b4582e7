(** Regeneration of the paper's two evaluation tables.

    [`Scaled] uses reduced bound lists and timeout so the whole suite
    runs in minutes on a laptop; [`Full] uses the paper's exact bounds
    (up to 400 time frames) and its 1200-second timeout. *)

type scale = [ `Scaled | `Full ]

val scale_name : scale -> string
(** ["scaled"] / ["full"], as recorded in the bench ledger record. *)

type t1_row = {
  t1_label : string;
  t1_type : Engines.verdict;   (** from the HDPLL+P run *)
  t1_relations : int;
  t1_learn_time : float;
  t1_hdpll : Engines.run;
  t1_hdpll_p : Engines.run;
}

val table1_instances : scale -> (string * string * int) list
(** (circuit, property, bound) triples of Table 1 rows. *)

val run_table1 : scale -> t1_row list

val print_table1 : Format.formatter -> t1_row list -> unit

type t2_row = {
  t2_label : string;
  t2_type : Engines.verdict;
  t2_arith : int;
  t2_bool : int;
  t2_runs : (Engines.engine * Engines.run) list;
}

val table2_instances : scale -> (string * string * int) list

val run_table2 : scale -> t2_row list
(** Every {!table2_instances} row across {!Engines.table2_engines}. *)

val print_table2 : Format.formatter -> t2_row list -> unit

val run_row :
  ?timeout:float -> engines:Engines.engine list -> string * string * int -> t2_row
(** Run one instance across engines. *)

val extension_instances : (string * string * int) list
(** BMC instances over the suite-extension circuits (b03, b06, b07,
    b09, b10, b11) — not part of the paper's tables. *)

val run_extension : unit -> t2_row list
(** HDPLL, HDPLL+S, HDPLL+S+P and bit-blast, 20 s timeout. *)

val wide_wrap_cases : (string * int) list
(** (kind, width) pairs of the wide_wrap family: wrap-around add, sub
    and mul-by-const corners at widths 32, 48 and 61.  Each case is a
    one-frame Sat instance whose only witness sits at a wrap corner —
    the workload class behind the w61 slow-ICP pathology. *)

val wide_wrap_label : string * int -> string
(** e.g. ["wide_add_w61"]. *)

val wide_wrap_instance : string * int -> Rtlsat_bmc.Bmc.instance

val run_wide_wrap : unit -> t2_row list
(** Run the whole family under the four HDPLL configurations, 20 s
    timeout. *)

type sweep_row = {
  sr_label : string;           (** e.g. ["b13_5"] *)
  sr_engine : Engines.engine;
  sr_steps : (Engines.sweep_step * Engines.run) list;
      (** per bound: the incremental step and its from-scratch twin *)
}

val bmc_sweep_cases : scale -> (string * string * int list) list
(** (circuit, property, bounds) of the bmc_sweep bench family. *)

val bmc_sweep_engines : Engines.engine list
(** Engines of the family: HDPLL, HDPLL+S+P and the eager bit-blast
    baseline. *)

val run_bmc_sweep : scale -> sweep_row list
(** Sweep every case's bounds through one solver session per engine
    ({!Engines.run_sweep}) and re-solve each bound from scratch for
    comparison.  The scale's timeout is a per-bound budget. *)

val print_bmc_sweep : Format.formatter -> sweep_row list -> unit

type simp_row = {
  sy_label : string;           (** e.g. ["b13_1(10)"] *)
  sy_engine : Engines.engine;
  sy_on : Engines.run;   (** simplify on (the default configuration) *)
  sy_off : Engines.run;  (** simplify off (the seed solver's behaviour) *)
}

val simplify_cases : scale -> (string * string * int) list
(** (circuit, property, bound) of the simplify bench family. *)

val simplify_engines : Engines.engine list
(** Engines of the family: the hybrid HDPLL+S+P configuration
    and the eager bit-blast baseline — one arm per clause database the
    pre/inprocessing pipeline touches. *)

val run_simplify : scale -> simp_row list
(** Solve every case twice per engine, simplification on and off.
    Every run gets its own observability handle (unlike the other
    families) so {!print_simplify} can show the simplify.* counters —
    the family's whole point is the database reduction. *)

val print_simplify : Format.formatter -> simp_row list -> unit
