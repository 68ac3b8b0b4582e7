(** JSON serializers for the machine-readable results of
    [rtlsat solve --stats-json] (["rtlsat.solve/1"]) and
    [rtlsat fuzz --json] (["rtlsat.fuzz/1"]).  The schemas are
    documented in docs/OBSERVABILITY.md; bump the ["schema"] tags when
    changing shapes. *)

module Json = Rtlsat_obs.Json

val verdict_string : Engines.verdict -> string
(** ["sat"], ["unsat"], ["timeout"], ["abort"]. *)

val stats_json : Rtlsat_core.Solver.stats -> Json.t
(** Every §5 counter: decisions, conflicts, propagations, learned,
    jconflicts, final_checks, splits, relations, learn_time_s,
    solve_time_s. *)

val solve_json : instance:string -> bound:int -> Engines.engine -> Engines.run -> Json.t
(** Top-level object of [rtlsat solve --stats-json]
    (schema ["rtlsat.solve/1"]); carries the {!Rtlsat_obs.Env}
    fingerprint under ["env"]. *)

val fuzz_json :
  seed:int ->
  count:int ->
  instances:int ->
  sat:int ->
  unsat:int ->
  timeouts:int ->
  wall_s:float ->
  failures:Json.t list ->
  metrics:Rtlsat_obs.Obs.snapshot option ->
  Json.t
(** Campaign summary of [rtlsat fuzz --json] (schema
    ["rtlsat.fuzz/1"]).  [failures] are pre-serialized failure objects
    (the fuzz library builds them — the dependency points that way);
    the ["failures"] field is their count, the cases live under
    ["failure_cases"]. *)
