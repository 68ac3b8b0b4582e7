(** Append-only cross-run ledger: one JSON-lines record (schema
    ["rtlsat.run/1"]) per [solve] / [sweep] / [sat] / [fuzz] / [bench]
    invocation, so verdicts, wall times and the producing environment
    survive across processes.  [rtlsat runs] lists and filters it.

    The ledger lives at {!default_path} unless overridden
    ([--ledger FILE] / [RTLSAT_LEDGER]); [--no-ledger] disables the
    append.  Reading tolerates a torn final line (a record cut short
    by a crash mid-append) and skips corrupt lines, as {!Trace.reader}
    does for traces. *)

val schema : string
(** ["rtlsat.run/1"] — one ledger record. *)

val runs_schema : string
(** ["rtlsat.runs/1"] — the [rtlsat runs --json] listing. *)

val default_path : unit -> string
(** [$RTLSAT_LEDGER] when set and non-empty, else
    [".rtlsat/ledger.jsonl"]. *)

val make :
  ?now:float ->
  ?pid:int ->
  subcommand:string ->
  argv:string list ->
  instance:string ->
  engine:string ->
  options:string ->
  verdict:string ->
  wall_s:float ->
  counters:(string * int) list ->
  artifacts:(string * string) list ->
  unit ->
  Json.t
(** One [rtlsat.run/1] record: run id (UTC timestamp + pid), [ts],
    the full [argv], the run key ([instance], [engine], [options]
    digest), outcome ([verdict], [wall_s]), key [counters]
    (decisions, conflicts, …), [artifacts] (trace / flight / metrics
    paths, only those actually written) and the {!Env} fingerprint.
    [now] / [pid] default to the current clock and process — they are
    parameters for deterministic tests. *)

val append : path:string -> Json.t -> unit
(** Append one record line, creating the parent directory if needed.
    @raise Sys_error when the path cannot be opened — callers should
    warn and continue, never fail the run over bookkeeping. *)

(** One parsed ledger record.  [json] keeps the full original object
    (counters, artifacts, env) for [--json] output. *)
type record = {
  id : string;
  ts : string;
  subcommand : string;
  instance : string;
  engine : string;
  options : string;
  verdict : string;
  wall_s : float;
  json : Json.t;
}

val of_json : Json.t -> record option
(** [None] for a non-[rtlsat.run/1] object. *)

val load : path:string -> record list
(** All parseable records in file order.  A missing file is an empty
    ledger; corrupt lines — including a torn final line — are
    skipped. *)

val filter :
  ?instance:string -> ?engine:string -> ?last:int -> record list -> record list
(** Restrict to exact instance/engine matches, then keep the last [n]
    records (file order preserved). *)

val median : float list -> float
(** 0.0 on the empty list; mean of the two middles on even length. *)

val group_median : record list -> record -> float
(** Median [wall_s] over every record in the list sharing the given
    record's (instance, engine, options) key. *)

val slow : record list -> record -> bool
(** [wall_s] strictly above {!group_median} — the [rtlsat runs]
    slow-run flag.  A key's only record is never slow. *)
