(** Divergence attribution between two trace files of the same
    instance ([rtlsat trace-diff OLD NEW]): align the key-event
    sequences (decisions, interval splits, conflicts), name the first
    event where the searches part ways, and report per-phase time and
    counter deltas — turning "the bench got slower" into "search
    diverged at decision #412".

    Verdict divergence (the [done] results differ, or one trace has no
    [done] at all) is the signal callers exit 1 on. *)

(** One parsed trace.  [keys] are canonical renderings of the key
    events in file order — e.g. [decide(kind=split var=3 lvl=5)] —
    used both for alignment and for naming the divergence. *)
type side = {
  file : string;
  schema : string option;        (** header schema tag *)
  verdict : string option;       (** [done] result; [None] = no [done] *)
  keys : string array;
  phases : (string * float) list;    (** [phases] event self-seconds *)
  counters : (string * int) list;    (** [done] totals + key-event counts *)
}

type divergence = {
  index : int;              (** 0-based position in the key sequence *)
  older : string option;    (** [None]: this side's trace ended here *)
  newer : string option;
}

type t = {
  old_side : side;
  new_side : side;
  first : divergence option;  (** [None]: key sequences identical *)
  verdict_diverged : bool;
}

val diff : old_file:string -> new_file:string -> t
(** Reads both traces through {!Forensics.profile_with}: malformed
    lines and an incomplete last line (the torn tail of a killed run)
    are skipped.  When a trace has several [done] events (one per
    session call), the last one's verdict and totals count.
    @raise Sys_error when a file cannot be read.
    @raise Trace.Unsupported_schema unless both traces are
    rtlsat.trace/7 or /8. *)

val print : Format.formatter -> t -> unit
(** Schemas, verdicts, the first divergent key event (old vs new
    rendering), then per-phase self-time deltas and counter deltas
    (new − old, only non-zero rows). *)

val exit_code : t -> int
(** 1 on verdict divergence, else 0. *)
