(** [rtlsat serve]: a JSON-lines request/response daemon skeleton over
    warm engine sessions.

    One request per line on the input channel, one response per line
    on the output channel, schema ["rtlsat.serve/1"] (see
    docs/OBSERVABILITY.md for the full field catalogue).  The daemon
    keeps a pool of warm per-(circuit, prop, engine) {!Engines.session}
    values: a repeated solve or sweep request reuses the session's
    frame-incremental unroll prefix and — for every engine but the
    lazy CDP, which re-solves from scratch — its carried learned
    clauses, so the second identical request answers with
    [session.warm = true], [session.unroll_cache = "hit"] and a
    non-zero [carried_clauses].  Per-request deadlines ride a fresh
    {!Req.t} per request; the pool entry's creation request fixes the
    engine knobs for the session's lifetime.

    Operations: [solve] (one bound), [sweep] (a bound list), [ping],
    [stats] (the session pool), [shutdown].  Malformed or failing
    requests produce [{"ok": false, "error": ...}] responses and keep
    the loop alive; only [shutdown] or end-of-input ends it. *)

val schema : string
(** ["rtlsat.serve/1"] — stamped on every response. *)

type t
(** Daemon state: the warm session pool and request bookkeeping. *)

val create : ?ledger:string -> ?engine:Engines.engine -> unit -> t
(** [ledger] appends one [rtlsat.run/1] record (subcommand ["serve"])
    per solve/sweep request; omit it for no ledger.  [engine] (default
    [Hdpll_sp]) serves requests that do not name one. *)

val handle : t -> Rtlsat_obs.Json.t -> Rtlsat_obs.Json.t * bool
(** Process one parsed request; returns the response and whether the
    loop should continue ([false] only after [shutdown]).  Never
    raises on bad requests — errors become [{"ok": false}] responses.
    Exposed for in-process tests. *)

val handle_line : t -> string -> string * bool
(** {!handle} on one raw input line (parse errors become error
    responses). *)

val run : t -> in_channel -> out_channel -> int
(** The blocking request loop: read lines until EOF or [shutdown],
    answer each on [out] (flushed per response).  Returns the number
    of requests served. *)
