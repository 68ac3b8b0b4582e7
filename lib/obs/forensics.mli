(** Search forensics: work attribution and pathology detection.

    Two halves share this module:

    {b Online attribution} — a per-solve table of propagation work,
    attributed to the arithmetic constraint that caused it and the
    word variable it narrowed: wakeups, narrowing counts, total
    interval width shaved, and sampled wall-clock time per constraint.
    The table also watches for {e ICP stalls} — sustained runs of tiny
    narrowings across a huge domain (the w61 wrap-around pathology,
    where interval propagation converges one unit per sweep across a
    2^61 domain) — and reports them as they happen, so a slow solve
    diagnoses itself instead of timing out silently.

    {b Offline analysis} — a replay profiler for [--trace] JSON-lines
    files ([rtlsat profile]): event statistics, conflict locality,
    restart efficacy, detected stalls and a human-readable diagnosis.

    The online half is only ever reached behind an [Obs.enabled]
    check, so the disabled-observability overhead contract
    (one load + one branch per site) is unaffected. *)

(* ---- online attribution ---- *)

type t

val create : nvars:int -> nconstrs:int -> t
(** Fresh, all-zero attribution table for one solve. *)

val set_names :
  t -> var_name:(int -> string) -> constr_desc:(int -> string) -> unit
(** Late-bound pretty-printers used by stall reports and top-K
    summaries; ids are printed bare until these are set. *)

val var_name : t -> int -> string
val constr_desc : t -> int -> string

val sample_period : int
(** 64: one wakeup of a constraint in this many is timed (see
    {!constr_enter}). *)

val constr_enter : t -> int -> bool
(** The propagator is about to run constraint [ci]: counts a wakeup
    and makes [ci] the attribution target for narrowings until the
    exit.  Returns [true] on one in every {!sample_period} consecutive
    wakeups of [ci] (at a phase fixed by [ci]): the caller times that
    wakeup and closes it with {!constr_exit_sampled}, any other with
    {!constr_exit}. *)

val constr_exit : t -> unit
(** Clears the attribution target. *)

val constr_exit_sampled : t -> enter:float -> exit:float -> unit
(** Charges {!sample_period} times [exit - enter] (two {!Mono.now}
    readings around the sampled wakeup) to the current target, if any,
    and clears it.  Per-constraint time is thus an estimate costing two
    clock reads per {!sample_period} wakeups; wakeup, narrowing and
    shaved counts stay exact. *)

(** An ICP stall report: variable [st_var] has been narrowed for
    [st_streak] consecutive events, each shaving at most
    {!stall_max_shave} units, while its domain stayed at least
    {!stall_min_width} wide. *)
type stall = {
  st_var : int;
  st_constr : int;  (** constraint active at the report; -1 = clause *)
  st_streak : int;
  st_shaved : int;  (** total units shaved over the streak *)
  st_width : int;   (** domain width remaining *)
}

val stall_min_width : int
(** 2{^32}: only domains at least this wide can stall. *)

val stall_max_shave : int
(** A narrowing shaving more than this many units breaks a streak. *)

val stall_streak : int
(** First report fires when a streak reaches this length; follow-ups
    re-fire at 16x, 256x, ... so a long stall stays visible without
    flooding the trace. *)

val note_narrow : t -> var:int -> shaved:int -> width:int -> stall option
(** Record one narrowing of a word variable ([shaved] units removed,
    [width] remaining), attributed to the current constraint.
    Returns [Some stall] when this narrowing crosses a stall-report
    threshold. *)

val stalls : t -> int
(** Stall reports issued so far. *)

val total_shaved : t -> int
(** Total interval width removed across every narrowing this solve —
    the progress number heartbeats report for ICP-bound runs. *)

val note_split : t -> var:int -> unit
(** Record one interval-split (bisection) decision on [var], for
    stall → split attribution. *)

val splits : t -> int
(** Split decisions recorded so far. *)

type hot_constr = {
  hc_id : int;
  hc_desc : string;
  hc_wakeups : int;
  hc_narrows : int;
  hc_shaved : int;
  hc_time : float;
}

type hot_var = {
  hv_id : int;
  hv_name : string;
  hv_narrows : int;
  hv_shaved : int;
}

val top_constraints : t -> k:int -> hot_constr list
(** The [k] constraints charged the most propagation time (ties broken
    by narrowing count); constraints that never narrowed anything are
    omitted. *)

val top_vars : t -> k:int -> hot_var list
(** The [k] most-narrowed word variables. *)

(* ---- offline analysis: the trace-replay profiler ---- *)

val trace_versions : (int * string) list
(** Every trace schema version this build reads, with a one-line
    description of what each added — the profiler's dispatch table. *)

val max_trace_version : int

exception Unsupported_schema of string
(** Raised by {!profile_string} / {!profile_file} when the trace
    header carries a schema tag this build does not know (a future
    [rtlsat.trace/N] or a foreign format); the message names the
    supported range. *)

val schema_version : string -> int option
(** Parse ["rtlsat.trace/N"] into [Some N]; [None] for anything
    else. *)

type stall_info = {
  si_var : int;
  si_name : string;
  si_desc : string;      (** description of the driving constraint *)
  si_reports : int;
  si_max_streak : int;
  si_last_width : int;
}

type profile = {
  pf_schema : string option;  (** [None]: headerless (v1) trace *)
  pf_version : int;           (** dispatched schema version; 1 when headerless *)
  pf_warnings : string list;
  pf_events : (string * int) list;  (** event name -> count, by count *)
  pf_wall : float;                  (** t of the last event *)
  pf_result : string option;        (** from the [done] event *)
  pf_decisions : (string * int) list;  (** decision kind -> count *)
  pf_conflicts : int;
  pf_learned_len_mean : float;
  pf_backjump_mean : float;
  pf_local_backjumps : int;  (** conflicts backjumping <= 2 levels *)
  pf_restarts : int;
  pf_splits : int;             (** interval-split decisions ([split] events) *)
  pf_split_vars : int;         (** distinct variables split *)
  pf_split_stalled : int;      (** split variables also reported stalled *)
  pf_heartbeats : int;         (** [heartbeat] telemetry events (v5) *)
  pf_stalls : stall_info list;
  pf_hot_constraints : hot_constr list;  (** from [hot_constraints] *)
  pf_hot_vars : hot_var list;            (** from [hot_vars] *)
  pf_phases : (string * float) list;     (** from [phases] *)
  pf_diagnosis : string list;
      (** ordered findings, dominant behaviour first *)
}

val profile_string : string -> profile
(** Analyze a whole trace given as one string (JSON object per line).
    Never raises on malformed events — they become warnings.
    @raise Unsupported_schema on an unknown header schema tag. *)

val profile_file : string -> profile
(** @raise Sys_error when the file cannot be read.
    @raise Unsupported_schema on an unknown header schema tag. *)

val print_profile : Format.formatter -> profile -> unit
(** The [rtlsat profile] report. *)
