(** DIMACS CNF front end for the standalone CDCL solver, so the
    Boolean engine can be used (and cross-checked) on standard SAT
    files. *)

val parse : string -> int * int list list
(** [parse text] is [(n_vars, clauses)] with DIMACS literal
    conventions (positive/negative 1-based integers).
    @raise Failure with a [line N:] prefix on malformed input. *)

val load : Cdcl.t -> string -> int array
(** Parse and add every clause to the solver; returns the variable map
    (DIMACS variable [i] is solver variable [map.(i - 1)]).  Missing
    variables are created. *)

val solve_cnf :
  ?deadline:float ->
  ?simplify:bool ->
  ?inprocess:int ->
  ?solver_out:Cdcl.t option ref ->
  ?obs:Rtlsat_obs.Obs.t ->
  int * int list list ->
  [ `Sat of bool array | `Unsat | `Timeout ]
(** One-shot: solve a formula as returned by {!parse} and return the
    model indexed by DIMACS variable - 1.  [simplify] (default [true])
    runs full preprocessing — including variable elimination, sound
    here because solving is one-shot — before the search; [inprocess]
    > 0 re-simplifies every that many conflicts.  [deadline] bounds
    preprocessing and search alike.  [solver_out], when given,
    receives the underlying solver so callers can read
    {!Cdcl.simp_stats} and clause counts afterwards.  [obs] is passed
    through to {!Cdcl.solve} (flight recorder / trace events). *)

val solve_text :
  ?deadline:float ->
  ?simplify:bool ->
  ?inprocess:int ->
  ?solver_out:Cdcl.t option ref ->
  ?obs:Rtlsat_obs.Obs.t ->
  string ->
  [ `Sat of bool array | `Unsat | `Timeout ]
(** [solve_cnf] over [parse text].
    @raise Failure with a [line N:] prefix on malformed input. *)

val print_result :
  Format.formatter -> [ `Sat of bool array | `Unsat | `Timeout ] -> unit
(** Competition-style output: an [s] line and, when satisfiable,
    [v] lines. *)
