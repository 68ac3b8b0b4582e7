(** Structural decision strategy (§4, Algorithm 2).

    Maintains the candidates of the dynamic J-frontier — Boolean gates
    and word-level muxes, the justifiable operators of Definition 4.1 —
    and turns the first unjustified one (scanning from the outputs
    toward the inputs) into a Boolean decision.  Purely arithmetic
    operators (adders, comparators, shifts) are not justifiable: their
    values are determined by interval constraint propagation alone.

    A mux whose required output interval intersects neither input is a
    structural conflict (J-conflict, §4.3): {!Jconflict} carries the
    implying bound atoms, and the caller feeds them to the regular
    hybrid conflict analysis to learn a clause and backtrack
    non-chronologically. *)

open Rtlsat_constr.Types

type t

val create : Rtlsat_constr.Encode.t -> t

exception Jconflict of atom array

val n_candidates : t -> int

val decide :
  ?mux_pref:(var -> int * int) ->
  t ->
  State.t ->
  atom option
(** The next justification decision, or [None] when every candidate is
    justified.  [mux_pref sel] gives [(score for sel=1, score for
    sel=0)] from static predicate learning (§4.4): with a choice of
    select values, prefer the one satisfying more learned relations.
    @raise Jconflict on a structural conflict. *)
