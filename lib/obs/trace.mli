(** Structured event sink: one JSON object per line (JSON-lines).
    Every event carries ["ev"] (the event name) and ["t"] (seconds
    since the sink was opened); the remaining fields are
    event-specific — see docs/OBSERVABILITY.md for the schema. *)

type t

val schema : string
(** The current trace schema tag, ["rtlsat.trace/8"].  Version 2 added
    the leading [header] event and the forensics events ([icp_stall],
    [hot_constraints], [hot_vars], [phases]); v1 traces have no header
    line.  Version 3 adds the [split] event (interval-split decisions)
    and the ["split"] kind of [decide].  Version 4 adds the session
    lifecycle events ([session.create], [solve.begin] with assumption
    count and carried-clause/relation counters) and the ["assumption"]
    kind of [decide].  Version 5 adds the live-telemetry events:
    periodic [heartbeat] progress (totals, per-second rates, decision
    level, sweep context), the [recorder] marker at the head of a
    flight-recorder dump, and the sweep progress events [sweep.bound]
    / [sweep.result].  Version 6 adds [simplify.pass] (per-pass
    pre/inprocessing summary: engine, clauses subsumed / strengthened
    / eliminated, probe results, database size before/after).
    Version 7 adds GC/memory telemetry to [heartbeat] events
    ([major_words], [heap_mb], [compactions] from [Gc.quick_stat]).
    Version 8 tags every event emitted through a parallel worker's
    handle (portfolio / cube-and-conquer domains) with a ["worker"]
    field.  {!Forensics.trace_versions} is the dispatch table offline tooling
    reads. *)

val to_file : string -> t
(** Opens (truncates) [path] for writing and emits the [header] event
    (carrying {!schema}) as the first line. *)

val emit : t -> ev:string -> (string * Json.t) list -> unit
val events : t -> int
(** Events emitted so far. *)

val close : t -> unit
(** Flush and close the underlying channel; further [emit]s are
    ignored. *)
