(** Solver kernel: variable bounds, the hybrid trail, the hybrid
    implication graph and the clause database.

    This is the machinery behind §2.4's hybrid implication graph, in
    the bound-atom formulation: every fact on the trail is an atom
    ([b], [¬b], [w ≥ k], [w ≤ k]) together with its decision level and
    an explanation (the antecedent atoms that implied it).  Boolean
    assignments are the singleton bounds [⟨1,1⟩]/[⟨0,0⟩], so the whole
    trail is uniform and conflict analysis works over one atom
    vocabulary. *)

open Rtlsat_constr.Types

type reason = atom array option
(** [None] for decisions; otherwise the antecedent atoms, all entailed
    when the entry was pushed. *)

type entry = {
  eatom : atom;      (** the new fact, in canonical bound form *)
  prev : int;        (** bound value this event replaced (for undo) *)
  elevel : int;
  ereason : reason;
}

exception Conflict of atom array
(** The payload atoms are all entailed and jointly inconsistent. *)

(** Occurrence lists (variable → clause or constraint indices) as flat
    int arrays.  [occ.(v)] holds [v]'s indices in registration order
    in its first [n_occ.(v)] slots; every reader walks them newest
    first (see {!occs_iter}), which fixes the propagation visit
    order.  Clauses are registered in index order, so each clause
    list ascends by clause index ({!Hsimp} relies on this). *)
type occs = {
  mutable occ : int array array;
  mutable n_occ : int array;
}

val occs_count : occs -> var -> int

val occs_iter : (int -> unit) -> occs -> var -> unit
(** Newest registration first. *)

type t = {
  prob : Rtlsat_constr.Problem.t;
  mutable nv : int;
  mutable lb : int array;
  mutable ub : int array;
  mutable init_lb : int array;
  mutable init_ub : int array;
  trail : entry Rtlsat_constr.Vec.t;
  lim : int Rtlsat_constr.Vec.t;            (** decision-level boundaries *)
  mutable lo_ev : (int * int) list array;   (** var → (new lb, trail idx), newest first *)
  mutable hi_ev : (int * int) list array;   (** var → (new ub, trail idx), newest first *)
  clauses : clause Rtlsat_constr.Vec.t;
  root_flags : bool Rtlsat_constr.Vec.t;
      (** parallel to [clauses]: [true] for problem ("root") clauses.
          A per-clause flag, not a prefix — in a session, appended
          problem clauses land after learned ones *)
  clause_occs : occs;                       (** var → clause indices *)
  mutable n_root_clauses : int;             (** count of root-flagged clauses *)
  mutable n_prob_clauses : int;
      (** how many of the problem's clauses have been loaded; the sync
          cursor for {!grow} *)
  mutable n_clean : int;
      (** clean prefix: the first [n_clean] clauses were all present,
          and checked pair by pair, when the last {!Hsimp} pass
          reached its fixpoint, and none has changed since.  Appends
          land outside it; {!compact_clauses} keeps it right *)
  mutable hs_flags : Bytes.t;
  mutable hs_mark : Bytes.t;
      (** {!Hsimp} scratch, reused across passes: per-clause pass
          flags and per-variable marks *)
  mutable constrs : constr array;
  constr_occs : occs;                       (** var → constraint indices *)
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  heap : Heap.t;
  mutable phase : bool array;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_learned : int;
  mutable n_jconflicts : int;
  mutable n_final_checks : int;
  mutable n_reductions : int;
  (* interval-split decisions *)
  mutable split_streak : int array;
      (** per-variable count of consecutive tiny shaves; plain ints,
          maintained on every word narrowing whether or not
          observability is attached *)
  mutable split_dir : bool array;
      (** direction of the variable's last narrowing: [true] when the
          lower bound crawled up, [false] when the upper bound crawled
          down; the bisection decides the arm that keeps chasing it *)
  split_heap : Heap.t;
      (** activity-ordered candidates whose streak crossed
          {!split_streak_limit}; only populated when [split] is on *)
  mutable split : bool;
      (** master switch, set by the solver from its options; when off
          the kernel behaves exactly as if splits did not exist *)
  mutable n_splits : int;
  (* observability *)
  mutable obs : Rtlsat_obs.Obs.t;
      (** instrumentation handle threaded through every kernel client;
          {!Rtlsat_obs.Obs.disabled} (the default) makes every
          instrumentation site a single load-and-branch *)
}

val split_max_shave : int
(** A narrowing counts toward the streak when it shaves at most this
    many units. *)

val split_streak_limit : int
(** Consecutive tiny shaves before the variable is nominated for
    bisection. *)

val split_min_width : int
(** Narrowings of domains below this width never count toward a
    streak; far below {!Rtlsat_obs.Forensics.stall_min_width} so
    splitting keeps chasing the crawl into small domains. *)

val create : Rtlsat_constr.Problem.t -> t
(** Builds the kernel, loads the problem's clauses and constraints and
    registers occurrence lists.  Unit clauses are asserted at level 0
    ({!propagate-time} conflicts there surface as {!Conflict}). *)

val grow : t -> unit
(** Absorb variables, clauses and constraints appended to the problem
    since [create] (or the previous [grow]).  Variable numbering is
    append-only, so existing indices, learned clauses and activities
    stay valid; the per-variable arrays reallocate in place.  New
    problem clauses are registered as root.  Must be called at
    decision level 0.
    @raise Invalid_argument above level 0. *)

val decision_level : t -> int
val new_level : t -> unit
val backtrack_to : t -> int -> unit

val entailed : t -> atom -> bool
val falsified : t -> atom -> bool
val bool_value : t -> var -> int
(** -1 unassigned, 0, or 1. *)

val dom : t -> var -> Rtlsat_interval.Interval.t

val assert_atom : t -> atom -> reason -> unit
(** Tighten a bound / assign a Boolean.  No-op when already entailed.
    @raise Conflict when it empties the domain; the conflict contains
    the reason atoms plus the opposing bound atom. *)

val canonical : t -> atom -> atom
(** Bound atoms over Boolean variables become [Pos]/[Neg]. *)

val mk_lo : t -> var -> int -> atom
val mk_hi : t -> var -> int -> atom
(** [canonical (Ge (v, k))] and [canonical (Le (v, k))], allocating
    only the result. *)

val add_clause : t -> ?root:bool -> clause -> unit
(** Register a clause (learned by default; [~root:true] for problem
    clauses, which database reduction never drops) with occurrence
    lists; the caller is responsible for any immediate propagation. *)

val clear_clause_occs : t -> unit
(** Empty every clause occurrence list (capacity is kept) before a
    database rebuild re-registers the surviving clauses. *)

val is_root_clause : t -> int -> bool
(** Whether the clause at this database index is root (problem-level)
    as opposed to learned. *)

val compact_clauses : t -> keep:(int -> bool) -> unit
(** Drop every clause whose index fails [keep], preserving the order
    of the rest, and rebuild the occurrence lists and root count as
    {!add_clause} in that order would.  [keep] sees each original
    index once, in increasing order, before anything at or after it
    moves.  The clean prefix ({!field-n_clean}) shrinks to the kept
    clauses that were in it. *)

val reduce_clauses : t -> keep_recent:int -> unit
(** Learned-clause database reduction: drop long, old learned clauses,
    keeping every original clause, every binary/short learned clause
    and the [keep_recent] most recent ones.  Safe at any decision
    level — trail explanations are copied atom arrays and never
    reference clause storage. *)

val entailing_entry : t -> atom -> int option
(** Trail index of the event that first entailed the (currently
    entailed) atom; [None] when the initial domain already entails it. *)

val bump_var : t -> var -> unit
val decay_activities : t -> unit

val note_shave : t -> var -> shaved:int -> width:int -> unit
(** Feed one word-level narrowing into the split-streak machinery:
    tiny shaves of wide domains extend the streak (nominating the
    variable once it crosses {!split_streak_limit}), anything else
    resets it.  Called from {!assert_atom}; exposed for tests. *)

val pp_atom : t -> Format.formatter -> atom -> unit
val pp_trail : t -> Format.formatter -> unit -> unit
