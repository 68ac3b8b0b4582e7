(** Solver kernel: variable bounds, the hybrid trail, the hybrid
    implication graph and the clause database.

    This is the machinery behind §2.4's hybrid implication graph, in
    the bound-atom formulation: every fact on the trail is an atom
    ([b], [¬b], [w ≥ k], [w ≤ k]) together with its decision level and
    an explanation (the antecedent atoms that implied it).  Boolean
    assignments are the singleton bounds [⟨1,1⟩]/[⟨0,0⟩], so the whole
    trail is uniform and conflict analysis works over one atom
    vocabulary.

    {2 Layout}

    Propagation allocates only conflict payloads (and whatever an
    enabled observability handle records).
    - The trail is a struct of int arrays ([tr_*] below), one slot per
      bound event: variable and side, the new bound, the variable's
      previous event on the same side, the decision level and a reason
      slice.  The entry's atom is [canonical s (Ge (v, bound))] or
      [canonical s (Le (v, bound))] ({!trail_atom}).  Only events move
      a bound, so undoing one restores its previous event's bound, or
      the initial one.
    - Each variable's events on one side form a chain, newest first:
      [last_lo]/[last_hi] name the newest entry and [tr_prev] links to
      the one before.  A backtrack unlinks a popped entry in O(1), and
      {!entailing_entry} walks the chain.
    - A reason is a slice [(tr_rpos, tr_rlen)] of the reason arena
      [rs], an int buffer with two ints per atom.  Reasons are written
      in trail order, so a backtrack truncates the arena to the first
      popped entry's slice.  A propagator writes a reason at the arena
      top ({!reason_mark}, {!reason_push_lo}, ...) and then asserts with
      that mark; a no-op or a conflict drops what it wrote.  Only a
      {!Conflict} payload becomes an [atom array].
    - The clause database is one int arena ([cl_*] below): each clause
      is a slot of a header and its atoms in the reason arena's code
      form, and propagation, conflict payloads, unit reasons,
      strengthening and compaction read and write the ints.  Only
      {!clause} builds an [atom array], for cold readers.
    - Constraints are int tables ([cn_*], [lin_*]): a kind with its
      Boolean, a constant, and flat terms, so propagation reads no list
      and matches no variant.
    - A byte per variable says whether it is Boolean ([is_bool]), and
      the decision level is a field, so no event calls out of the
      module. *)

open Rtlsat_constr.Types

type reason = atom array option
(** [None] for decisions; otherwise the antecedent atoms, all entailed
    when the entry was pushed. *)

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
  mutable is_bool : Bytes.t;
      (** the Boolean map: byte [v] is non-zero when [v] is Boolean *)
  mutable tr_lit : int array;
      (** trail entry → [v lsl 1 lor side]: side 0 raised [v]'s lower
          bound, side 1 lowered its upper bound *)
  mutable tr_bound : int array;   (** the new bound *)
  mutable tr_prev : int array;
      (** the previous entry of the same variable and side, or [-1] *)
  mutable tr_level : int array;   (** decision level *)
  mutable tr_rpos : int array;    (** reason: first atom in the arena [rs] *)
  mutable tr_rlen : int array;    (** reason: atom count, [-1] for a decision *)
  mutable tr_len : int;           (** trail length; the arrays are capacity *)
  mutable lim : int array;
      (** decision-level boundaries: level [l] starts at trail length
          [lim.(l)], for [l] below [level] *)
  mutable level : int;            (** the decision level *)
  mutable low_water : int;
      (** the lowest trail length since {!Justify} last set it:
          {!backtrack_to} lowers it to the length it leaves.  The
          justifier reads it to undo retirements made on trail entries
          that have since been popped *)
  mutable last_lo : int array;
      (** var → its newest lower-bound entry, [-1] when none; older
          ones chain through [tr_prev] *)
  mutable last_hi : int array;    (** the same for upper bounds *)
  mutable rs : int array;
      (** the reason arena: two ints per atom, see {!atom_code} *)
  mutable rs_len : int;           (** atoms in the arena *)
  mutable cl_arena : int array;
      (** the clause arena.  Clause [ci]'s slot starts at
          [cl_start.(ci)] with a header [n lsl 1 lor root]: [n] atoms,
          and bit 0 set for a problem ("root") clause — a per-clause
          flag, not a prefix, since in a session appended problem
          clauses land after learned ones.  Its atoms follow in order,
          each its {!atom_code}, then its bound for a [Ge]/[Le] atom
          ([Pos]/[Neg] imply theirs).  The slots lie in index order in
          [[0, cl_top)]; a strengthening leaves a gap behind a shortened
          slot until the next {!compact_clauses}.  [Propagate]'s clause
          scan reads this layout inline, with no call per atom *)
  mutable cl_top : int;           (** the arena's used prefix *)
  mutable cl_start : int array;   (** clause → its slot *)
  mutable n_clauses : int;        (** clauses in the database *)
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
  mutable an_code : int array;
  mutable an_bound : int array;
      (** {!Conflict} scratch, reused across analyses: per trail
          index, the needed atom in arena form with its code plus one
          ([0] when none), all zero between analyses *)
  mutable cn_head : int array;
      (** constraint → its kind, 0 [Lin_le], 1 [Lin_eq], 2 [Pred], 3
          [Mux_w], with a predicate's [b] or a multiplexer's [sel] as
          [var lsl 2 lor kind] *)
  mutable cn_const : int array;   (** constraint → a linear one's constant *)
  mutable lin_off : int array;
  mutable lin_coef : int array;
  mutable lin_var : int array;
      (** the slots of every constraint, flat: constraint [ci]'s
          coefficients and variables sit in [lin_off.(ci)] to
          [lin_off.(ci + 1) - 1] ([lin_off] has one entry more than
          [cn_head]) — a linear constraint's terms in list order, a
          multiplexer's words [t], [e], [z] with coefficient 0 *)
  constr_occs : occs;                       (** var → constraint indices *)
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  heap : Rtlsat_sat.Heap.t;
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
  split_heap : Rtlsat_sat.Heap.t;
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

val is_bool : t -> var -> bool
(** Whether the variable is Boolean, off the Boolean map. *)

val add_clause : t -> ?root:bool -> clause -> unit
(** Write a clause into the arena at the next index (learned by
    default; [~root:true] for problem clauses, which database reduction
    never drops) and register it with occurrence lists; the caller is
    responsible for any immediate propagation. *)

val clause : t -> int -> clause
(** The clause at this database index, built from the arena
    (allocates; for cold readers). *)

val clause_len : t -> int -> int
(** Its atom count. *)

val read_clause : t -> int -> int array -> int array -> unit
(** [read_clause s ci codes bounds] writes clause [ci]'s atoms, in
    order, to the first {!clause_len} slots of [codes] (their
    {!atom_code}s) and [bounds] (their {!atom_bound}s), building no
    atom. *)

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
    level — trail explanations are reason-arena slices of copied atoms
    and never point into clause storage. *)

val vars_marked : t -> int -> Bytes.t -> bool
(** [vars_marked s ci marks]: whether byte [v] of [marks] is non-zero
    for every variable [v] of clause [ci]. *)

val drop_atoms : t -> int -> (int -> bool) -> unit
(** [drop_atoms s ci drop] removes in place the atoms of clause [ci]
    whose ordinals [drop] selects, the rest keeping their order.  The slot's freed ints stay a gap until
    the next {!compact_clauses}; the occurrence lists are not
    touched. *)

val entailing_entry : t -> atom -> int
(** Trail index of the event that first entailed the (currently
    entailed) atom; [-1] when the initial domain already entails it. *)

val entailing_code : t -> int -> int -> int
(** {!entailing_entry} of an arena atom's code and bound. *)

(** {2 Trail accessors} *)

val trail_length : t -> int
val trail_var : t -> int -> var
val trail_lower : t -> int -> bool
(** Whether the entry raised a lower bound (its atom is [Pos]/[Ge]). *)

val trail_bound : t -> int -> int
val trail_level : t -> int -> int
val trail_is_decision : t -> int -> bool
val trail_atom : t -> int -> atom
(** The entry's canonical atom (allocates). *)

val trail_reason : t -> int -> reason
(** The entry's reason as an array (allocates; for printing and
    tests). *)

(** {2 The reason arena}

    An arena atom is two ints: [code = v lsl 2 lor kind], kind 0 to 3
    for [Pos], [Neg], [Ge], [Le], and the bound ([1] for [Pos], [0]
    for [Neg]).  Kind bit 0 is the side: a lower bound [v >= k] when
    clear, an upper bound [v <= k] when set. *)

val reason_mark : t -> int
(** The arena top: where the reason written next starts. *)

val reason_push_lit : t -> var -> bool -> unit
(** Append [Pos v] (when [true]) or [Neg v] without building it. *)

val reason_push_lo : t -> var -> int -> unit
val reason_push_hi : t -> var -> int -> unit
(** Append [canonical s (Ge (v, k))] / [canonical s (Le (v, k))]
    without building it. *)

val atom_code : atom -> int
val atom_bound : atom -> int
val code_var : int -> var
val code_kind : int -> int
(** 0 [Pos], 1 [Neg], 2 [Ge], 3 [Le]. *)

val atom_of_code : int -> int -> atom
(** Between atoms and their arena form: [atom_of_code (atom_code a)
    (atom_bound a)] is [a]. *)

val assert_unit : t -> int -> int -> unit
(** [assert_unit s ci u] asserts clause [ci]'s [u]th atom with the
    negations of the clause's other atoms, in order, as its reason: a
    unit clause, or a learned clause's asserting atom. *)

val clause_conflict : t -> int -> 'a
(** Raise {!Conflict} with the negations of clause [ci]'s atoms, in
    order: the payload of a clause that every atom falsifies. *)

val assert_lo : t -> var -> int -> int -> unit
val assert_hi : t -> var -> int -> int -> unit
(** [assert_lo s v k mark] asserts [v >= k] ([assert_hi]: [v <= k])
    with the reason written since the mark, a decision when the mark
    is negative.  It is {!assert_atom} of [Ge (v, k)], so [Pos v] is
    [assert_lo s v 1].  A no-op drops the reason; a conflict takes it
    into the payload. *)

val assert_lo_canon : t -> var -> int -> int -> unit
val assert_hi_canon : t -> var -> int -> int -> unit
(** The same for [canonical s (Ge (v, k))] / [canonical s (Le (v, k))],
    without building the atom. *)

val take_reason : t -> int -> atom array
(** The atoms written since the mark, dropped from the arena. *)

val bump_var : t -> var -> unit
val decay_activities : t -> unit

val note_shave : t -> var -> shaved:int -> width:int -> unit
(** Feed one word-level narrowing into the split-streak machinery:
    tiny shaves of wide domains extend the streak (nominating the
    variable once it crosses {!split_streak_limit}), anything else
    resets it.  Called from {!assert_atom}; exposed for tests. *)

val pp_atom : t -> Format.formatter -> atom -> unit
val pp_trail : t -> Format.formatter -> unit -> unit
