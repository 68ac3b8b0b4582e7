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
    files and flight-recorder dumps ([rtlsat profile]): event
    statistics, conflict locality, restart efficacy, detected stalls,
    the last heartbeat, sweep progress and a human-readable
    diagnosis.

    The online half is only ever reached behind an [Obs.enabled]
    check, so the disabled-observability overhead contract
    (one load + one branch per site) is unaffected. *)

(* ---- online attribution ---- *)

(** The attribution table of one solve.  The kernel keeps the per-event
    counters itself, writing these arrays inline; the policies are this
    module's.  Propagate's wakeup loop, for a wakeup of constraint
    [ci]: counts [c_wakeups], sets [cur], and decrements [c_due.(ci)];
    when that reaches 0 the wakeup is timed between {!sample_start} and
    {!sample_stop}.  State's narrowing hook counts
    [v_narrows]/[v_shaved] and, when [cur >= 0], [c_narrows]/[c_shaved],
    and hands a narrowing whose remaining width is at least
    [stall_gate] to {!stall_step}.  Constraint and variable ids past the
    arrays' length (appended by a growing session) are not counted. *)
type t = {
  c_wakeups : int array;  (** per constraint: wakeups *)
  c_narrows : int array;  (** narrowings it drove *)
  c_shaved : int array;  (** units of width it removed *)
  c_time : float array;
      (** sampled seconds: an estimate costing two clock reads per
          {!sample_period} wakeups, where the counts are exact *)
  c_due : int array;
      (** wakeups left until the next timed one, counting that one *)
  v_narrows : int array;  (** per word variable: narrowings *)
  v_shaved : int array;  (** units of width removed *)
  mutable v_streak : int array;
      (** current stall streak (see {!stall_step}); empty until its
          first call *)
  mutable v_streak_shaved : int array;  (** units shaved over that streak *)
  mutable cur : int;
      (** the constraint being propagated, the target of narrowings;
          -1 outside a constraint (clause propagation, decisions) *)
  mutable streaking : int;  (** variables with a stall streak running *)
  mutable stall_gate : int;
      (** the least remaining width a narrowing needs to reach
          {!stall_step}: {!stall_min_width}, or [min_int] while a streak
          runs *)
  mutable n_stalls : int;
  mutable n_splits : int;
  mutable namer : (int -> string) option;
  mutable descr : (int -> string) option;
}

val create : nvars:int -> nconstrs:int -> t
(** Fresh, all-zero attribution table for one solve, its countdowns set
    so that constraint [ci] is first timed on its wakeup numbered
    [(-37 ci) mod] {!sample_period} (from 0): constraints woken in turn
    are not sampled in step. *)

val set_names :
  t -> var_name:(int -> string) -> constr_desc:(int -> string) -> unit
(** Late-bound pretty-printers used by stall reports and top-K
    summaries; ids are printed bare until these are set. *)

val var_name : t -> int -> string
val constr_desc : t -> int -> string

val sample_period : int
(** 256: one wakeup of a constraint in this many is timed. *)

val sample_start : t -> int -> float
(** The timed wakeup of constraint [ci] begins: re-arms its countdown
    and returns the clock. *)

val sample_stop : t -> int -> float -> unit
(** [sample_stop t ci start]: the timed wakeup has ended; charges [ci]
    {!sample_period} times its duration, for the wakeups it stands
    for.  A wakeup that raised (a conflict) is not charged. *)

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

val stall_step : t -> var:int -> shaved:int -> width:int -> stall option
(** One narrowing of word variable [var] ([shaved] units removed,
    [width] remaining; [var] below the table's variable count) for
    stall detection: extends or ends its streak, and returns
    [Some stall] when the streak crosses a report threshold.  The
    kernel calls it only when [width >= stall_gate]; a narrowing below
    that gate changes nothing here. *)

val stalls : t -> int
(** Stall reports issued so far. *)

val total_shaved : t -> int
(** Total interval width removed across every narrowing this solve —
    the progress number heartbeats report for ICP-bound runs (a sum,
    taken at the call). *)

val note_split : t -> var:int -> unit
(** Count one interval-split (bisection) decision on [var]. *)

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

val top_k :
  k:int -> cmp:(int -> int -> int) -> active:(int -> bool) -> int -> int list
(** [top_k ~k ~cmp ~active n]: the (at most) [k] ids [i < n] with
    [active i] that rank highest under [cmp] ([cmp a b > 0] when [a]
    ranks above [b]), best first, ties to the lower id.  One bounded
    selection pass, O(n·k); {!top_constraints} and {!top_vars} are
    built on it. *)

(* ---- offline analysis: the trace-replay profiler ---- *)

type stall_info = {
  si_var : int;
  si_name : string;
  si_desc : string;      (** description of the driving constraint *)
  si_reports : int;
  si_max_streak : int;
  si_last_width : int;
}

(** The last [heartbeat] event of a trace: running totals, per-second
    rates over the beat before it, and the GC picture. *)
type heartbeat = {
  hb_t : float;
  hb_decisions : int;
  hb_dps : float;
  hb_conflicts : int;
  hb_cps : float;
  hb_propagations : int;
  hb_pps : float;
  hb_splits : int;
  hb_stalls : int;
  hb_shaved : int;   (** total interval width shaved *)
  hb_lvl : int;      (** decision level *)
  hb_heap_mb : float;
  hb_major_words : float;
  hb_compactions : int;
}

(** A sweep bound: [sb_index] is 0-based among [sb_total] bounds. *)
type sweep_bound = {
  sb_bound : int;
  sb_index : int option;
  sb_total : int option;
}

type bound_result = { br_bound : int; br_verdict : string; br_time : float }

type profile = {
  pf_schema : string option;  (** header tag; [None]: empty trace *)
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
  pf_heartbeats : int;         (** [heartbeat] telemetry events *)
  pf_last_heartbeat : heartbeat option;
  pf_sweep_bound : sweep_bound option;
      (** the sweep bound still running: the last [sweep.bound] or
          heartbeat sweep context, unless a [sweep.result] closed it *)
  pf_bound_results : bound_result list;  (** [sweep.result]s, in order *)
  pf_stalls : stall_info list;
  pf_hot_constraints : hot_constr list;  (** from [hot_constraints] *)
  pf_hot_vars : hot_var list;            (** from [hot_vars] *)
  pf_phases : (string * float) list;     (** from [phases] *)
  pf_diagnosis : string list;
      (** ordered findings, dominant behaviour first *)
}

val profile_with : ?tap:(Json.t -> unit) -> (Trace.reader -> unit) -> profile
(** [profile_with read] folds every event [read] feeds to the reader it
    is given ({!Trace.feed} or {!Trace.read_file}) into a profile;
    [tap] sees each event first.
    Malformed lines and an incomplete last line become warnings.  Any
    split of the same bytes into chunks gives the same profile, so a
    growing trace can be profiled again at any time.
    @raise Trace.Unsupported_schema as {!Trace.feed}. *)

val profile_file : string -> profile
(** @raise Sys_error when the file cannot be read.
    @raise Trace.Unsupported_schema unless the trace is rtlsat.trace/7
    or /8. *)

val print_profile : Format.formatter -> profile -> unit
(** The [rtlsat profile] report. *)
