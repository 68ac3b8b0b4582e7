(** Solver-wide observability handle: hierarchical wall-clock span
    timers, named counters, bounded histograms, an optional JSON-lines
    event sink and optional periodic progress reports.

    One handle is threaded through an entire solve (encode → solve →
    final check); hot paths guard every instrumentation site with the
    [enabled] flag, so a disabled handle ({!disabled}) costs one load
    and one branch per site.  A disabled handle is never mutated —
    the shared {!disabled} instance is safe to pass everywhere.

    Enabling observability must not change solver behaviour: the
    instrumentation only reads search state, so results, learned
    clauses and their order are identical with and without it
    (checked by [test/test_obs.ml]). *)

(** The hierarchical phases of a solve.  Self-time accounting: while a
    nested span is open, elapsed time is attributed to the innermost
    phase only, so phase times sum to (at most) the observed wall
    clock. *)
type phase =
  | Encode             (** unrolling + RTL → constraint encoding *)
  | Static_learn       (** §3 predicate learning probes *)
  | Simplify           (** pre/inprocessing over the clause database *)
  | Bcp                (** Boolean/hybrid clause propagation *)
  | Icp                (** interval constraint propagation *)
  | Conflict_analysis  (** §2.4 hybrid implication-graph analysis *)
  | Justification      (** §4 structural decision scan *)
  | Final_check        (** solution-box certification *)
  | Fme                (** the FME/Omega arithmetic oracle *)

val phase_name : phase -> string
val all_phases : phase list

type t = {
  enabled : bool;
  self : float array;              (** per-phase self seconds *)
  calls : int array;               (** per-phase span entries *)
  alloc : float array;             (** per-phase allocated words (self,
                                       minor heap only) *)
  mutable stack : int list;        (** open phases, innermost first *)
  marks : float array;             (** the time and the allocated words
                                       of the last span event *)
  mutable prop_entries : int;
      (** trail entries propagated under this handle; the propagation
          loop counts them and times one in {!prop_sample_period} *)
  prop_sampled : float array;      (** sampled BCP and ICP seconds, the
                                       ratio {!prop_exit} splits by *)
  learned_len : Hist.t;            (** learned-clause lengths *)
  backjump : Hist.t;               (** backjump distances (levels) *)
  interval_width : Hist.t;         (** word-interval widths after narrowing *)
  counters : (string, int ref) Hashtbl.t;  (** free-form named counters *)
  trace : Trace.t option;
  recorder : Recorder.t option;
      (** flight recorder; an event sink like [trace], but bounded and
          in-memory — dumped post-mortem via {!flight_dump} *)
  heartbeat : Heartbeat.t option;
  mutable hb_context : (string * Json.t) list;
      (** extra fields appended to every heartbeat (e.g. the sweep
          bound); set with {!set_context} *)
  progress : progress option;
  mutable forensics : Forensics.t option;
      (** per-solve attribution table; attached by the solver via
          {!attach_forensics} when the handle is enabled *)
  t0 : float;                      (** handle creation instant *)
  gc0 : Gc.stat;                   (** GC totals at creation; the
                                       snapshot [mem] deltas baseline *)
  gc0_minor : float;               (** [Gc.minor_words ()] at creation —
                                       exact where [gc0.minor_words] only
                                       refreshes at a minor collection *)
}

and progress = {
  p_interval : float;
  mutable p_last : float;
  mutable p_decisions : int;
  mutable p_conflicts : int;
}

val disabled : t
(** The shared no-op handle; [enabled = false], never mutated. *)

val create :
  ?trace:Trace.t ->
  ?recorder:Recorder.t ->
  ?heartbeat_every:float ->
  ?progress_every:float ->
  unit ->
  t
(** A fresh enabled handle.  [recorder] attaches a flight-recorder
    ring that receives every trace event even with no [trace] sink;
    [heartbeat_every] turns on periodic [heartbeat] trace events (at
    most once per that many seconds); [progress_every] turns on
    one-line progress reports on stderr. *)

val tracing : t -> bool
(** [enabled] and an event sink ([trace] or [recorder]) is attached. *)

(* ---- spans ---- *)

val span_enter : t -> phase -> unit
val span_exit : t -> phase -> unit
(** Unbalanced exits are ignored (the solver can unwind through
    exceptions); prefer {!span}. *)

(* ---- propagation runs ---- *)

val prop_enter : t -> unit
(** Opens the span of one propagation run (one clock read).  It nests
    like any span and is closed by {!prop_exit}. *)

val prop_sample_period : int
(** 256: the propagation loop times the handle's first trail entry and
    every 256th one after it ([prop_entries] a multiple of this), on its
    clause and constraint halves, and adds both to [prop_sampled]. *)

val prop_exit : t -> bcp_calls:int -> icp_calls:int -> unit
(** Closes the run's span (one clock read) and splits its self time
    and allocation between [Bcp] and [Icp] by the cumulative sampled
    ratio (evenly before the first sample).  [bcp_calls] and
    [icp_calls] are counted as entries of each phase.  Ignored, like an
    unbalanced exit, when the run's span is not innermost. *)

val span : t -> phase -> (unit -> 'a) -> 'a
(** [span t ph f] runs [f] inside phase [ph], exception-safely.
    Disabled handles run [f] directly. *)

(* ---- counters and histograms ---- *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val counter : t -> string -> int
(** 0 when never touched. *)

val observe_learned_len : t -> int -> unit
val observe_backjump : t -> int -> unit

(* ---- events and progress ---- *)

val event : t -> string -> (string * Json.t) list -> unit
(** Emit to every attached sink (trace file and flight recorder).
    No-op unless {!tracing}.  Callers should avoid building the field
    list when not tracing. *)

(** The search's own events, the frequent ones: the flight recorder
    stores them as ints, stamped with the time of the handle's last span
    boundary, and only a trace file or a dump renders them (see
    {!Recorder.render}).  Each is a no-op unless {!tracing}. *)

type decision = Recorder.decision =
  | Activity
  | Structural
  | Random
  | Assumption
  | Split

val decide : t -> decision -> lvl:int -> var:int -> unit
(** A [decide] event: the decision's kind, its level and variable. *)

val conflict : t -> lvl:int -> bt:int -> len:int -> unit
(** A [conflict] event (level, backjump level, learned length) and the
    [learn] event of its clause. *)

val restart : t -> num:int -> conflicts:int -> unit

val static_learn : t -> len:int -> trigger_var:int -> unit
(** A [learn] event with cause [static]: a relation of predicate
    learning, learned from a probe of [trigger_var]. *)

val set_context : t -> (string * Json.t) list -> unit
(** Fields appended to every subsequent heartbeat — e.g.
    [("bound", Int k)] during a sweep.  Pass [[]] to clear. *)

val heartbeat_tick :
  t ->
  decisions:int ->
  conflicts:int ->
  propagations:int ->
  splits:int ->
  lvl:int ->
  unit
(** Rate-limited: at most one [heartbeat] event per configured
    interval, carrying the given totals, their per-second rates since
    the previous beat, stall/shaved totals from the attached
    forensics, the decision level, a live GC picture ([major_words],
    [heap_mb], [compactions] — trace/7) and the {!set_context}
    fields.  Cheap when not due (one clock read); no-op without a
    heartbeat configuration.  Call from existing step-count gates
    only. *)

val flight_dump : t -> string -> bool
(** Dump the flight-recorder ring to a file ([rtlsat profile] reads
    it), building its summary tables now.  Returns [false] (and writes
    nothing) when no recorder is attached or nothing was recorded.
    @raise Sys_error when the file cannot be written. *)

(* ---- forensics (per-constraint / per-variable attribution) ---- *)

val attach_forensics :
  t ->
  nvars:int ->
  nconstrs:int ->
  var_name:(int -> string) ->
  constr_desc:(int -> string) ->
  unit
(** Attach a fresh {!Forensics.t} sized for one solve (replacing any
    previous one, so attribution totals are always per-solve).  No-op
    on a disabled handle — {!disabled} is never mutated. *)

val forensics : t -> Forensics.t option
(** The attached table; [None] when disabled or never attached. *)

val stall_step :
  t -> Forensics.t -> var:int -> shaved:int -> width:int -> unit
(** {!Forensics.stall_step} on the attached table: when the narrowing
    crosses a stall threshold, bumps the [icp.stalls] counter and emits
    an [icp_stall] trace event naming the variable and the driving
    constraint.  The kernel's narrowing hook calls it for the
    narrowings {!Forensics.stall_step} says can matter. *)

val note_split : t -> var:int -> unit
(** Count one interval-split decision on [var] in the attached
    forensics table (the snapshot's [splits]); no-op without
    forensics.  The [icp.splits] counter and the [split] trace event
    are the solver's responsibility. *)

val emit_summary_events : t -> unit
(** When tracing, emit the end-of-solve summary events: [phases]
    (per-phase self seconds) and, if forensics is attached,
    [hot_constraints] / [hot_vars] (top-10 attribution).  A trace file
    gets them built now; the flight recorder gets markers, built only
    if and when it is dumped, from the handle as it is then. *)

val progress_tick :
  t -> decisions:int -> conflicts:int -> learned:int -> depth:int -> unit
(** Rate-limited one-line report on stderr (decisions/s, conflicts/s,
    learned-DB size, current decision depth).  No-op when the handle
    has no progress configuration. *)

val close : t -> unit
(** Close the attached trace sink, if any. *)

(* ---- snapshots ---- *)

(** GC/memory picture of one run: allocation and collection deltas
    over the handle's lifetime ([Gc.quick_stat] at snapshot minus at
    creation), heap sizes absolute at snapshot time. *)
type mem = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;        (** major-heap size, words (absolute) *)
  top_heap_words : int;    (** high-water mark, words (absolute) *)
}

type snapshot = {
  wall : float;                            (** seconds since creation *)
  phases : (string * float * int) list;    (** name, self seconds, entries *)
  phase_alloc : (string * float) list;
      (** name, self allocated words — minor-heap allocation only (the
          hot path reads just [Gc.minor_words]; see [mem] for the full
          major/promoted picture) *)
  histograms : (string * Hist.summary) list;
  counter_values : (string * int) list;    (** sorted by name *)
  trace_events : int;
  stalls : int;                            (** ICP stall reports (forensics) *)
  splits : int;                            (** interval-split decisions (forensics) *)
  hot_constraints : Forensics.hot_constr list;
      (** top-10 constraints by narrowings/time; empty without forensics *)
  hot_vars : Forensics.hot_var list;
      (** top-10 word variables by narrowings; empty without forensics *)
  mem : mem option;                        (** [None] on a disabled handle *)
}

val snapshot : t -> snapshot
(** A disabled handle yields an all-zero snapshot (every phase listed,
    zero everywhere, [mem = None]). *)

val snapshot_json : snapshot -> Json.t
(** Stable schema: [{"wall_s", "phases": {name:
    {"self_s","calls","alloc_w"}}, "histograms": {...}, "counters":
    {...}, "trace_events", "mem": {"minor_words", "major_words",
    "promoted_words", "minor_collections", "major_collections",
    "compactions", "heap_words", "heap_mb", "top_heap_words"},
    "forensics": {"stalls", "splits", "hot_constraints": [...],
    "hot_vars": [...]}}] with every phase present; the [mem] and
    [forensics] objects are always present and all-zero / empty-armed
    when never populated.  Documented in docs/OBSERVABILITY.md. *)
