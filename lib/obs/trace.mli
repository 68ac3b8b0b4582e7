(** JSON-lines event traces: the writer ([--trace]) and the one reader
    every trace consumer goes through ([rtlsat profile],
    [rtlsat trace-diff]).  Every event carries ["ev"] (the event name)
    and ["t"] (seconds since the sink was opened, from {!Mono.now});
    the remaining fields are event-specific — see
    docs/OBSERVABILITY.md for the schema. *)

type t

val schema : string
(** The current trace schema tag, ["rtlsat.trace/8"]. *)

val to_file : string -> t
(** Opens (truncates) [path] for writing and emits the [header] event
    (carrying {!schema}) as the first line. *)

val emit : t -> ev:string -> (string * Json.t) list -> unit
val events : t -> int
(** Events emitted so far. *)

val close : t -> unit
(** Flush and close the underlying channel; further [emit]s are
    ignored. *)

(** {1 Reading} *)

val versions : int list
(** The schema versions this build reads: 7 (GC/memory fields on
    [heartbeat]) and 8 (a ["worker"] field that nothing writes any
    more).  Older traces are rejected. *)

exception Unsupported_schema of string
(** The first line is not a [header] event carrying one of
    {!versions}: a headerless (v1) trace, an older or newer
    [rtlsat.trace/N], or a foreign file.  The message names the
    supported versions. *)

val schema_version : string -> int option
(** Parse ["rtlsat.trace/N"] into [Some N]; [None] for anything
    else. *)

type reader
(** Splits a byte stream into lines and hands each parsed event to a
    callback.  Bytes after the last newline are {e pending}: a live
    trace's next write, or the torn tail of a killed run.  They are
    never parsed and never count as malformed; a later {!feed} that
    completes the line delivers it. *)

val reader : (Json.t -> unit) -> reader

val feed : reader -> string -> unit
(** Feed the next chunk of the stream; a chunk may end anywhere,
    mid-line included.  Blank lines are skipped; a complete line that
    is not JSON is counted in {!malformed} and skipped.  The header is
    delivered to the callback like any other event.
    @raise Unsupported_schema when the first complete line is not a
    supported header. *)

val read_file : reader -> string -> unit
(** {!feed} the whole file.  @raise Sys_error when it cannot be read.
    @raise Unsupported_schema as {!feed}. *)

val header : reader -> string option
(** The header's schema tag; [None] until a first line arrived. *)

val malformed : reader -> int
(** Complete lines skipped as not JSON. *)

val pending : reader -> bool
(** Whether bytes after the last newline are waiting for the rest of
    their line. *)
