open Rtlsat_constr.Types
module Problem = Rtlsat_constr.Problem
module Interval = Rtlsat_interval.Interval
module Obs = Rtlsat_obs.Obs
module Hist = Rtlsat_obs.Hist
module Forensics = Rtlsat_obs.Forensics
module Heap = Rtlsat_sat.Heap

type reason = atom array option

exception Conflict of atom array

(* occurrence lists as flat int arrays: [occ.(v)] holds the indices
   registered for [v] oldest first in its first [n_occ.(v)] slots, and
   readers walk it newest first — that order is the propagation visit
   order, which the search depends on.  Variables without occurrences
   share the empty array. *)
type occs = {
  mutable occ : int array array;
  mutable n_occ : int array;
}

let occs_make nv = { occ = Array.make nv [||]; n_occ = Array.make nv 0 }

let occs_push o v i =
  let a = o.occ.(v) and n = o.n_occ.(v) in
  let a =
    if n < Array.length a then a
    else begin
      let b = Array.make (max 4 (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      o.occ.(v) <- b;
      b
    end
  in
  a.(n) <- i;
  o.n_occ.(v) <- n + 1

let occs_count o v = o.n_occ.(v)

let occs_iter f o v =
  let a = o.occ.(v) in
  for j = o.n_occ.(v) - 1 downto 0 do
    f a.(j)
  done

let occs_clear o = Array.fill o.n_occ 0 (Array.length o.n_occ) 0

let occs_grow o nv =
  let old = Array.length o.n_occ in
  if nv > old then begin
    let occ = Array.make nv [||] and n_occ = Array.make nv 0 in
    Array.blit o.occ 0 occ 0 old;
    Array.blit o.n_occ 0 n_occ 0 old;
    o.occ <- occ;
    o.n_occ <- n_occ
  end

type t = {
  prob : Problem.t;
  mutable nv : int;
  mutable lb : int array;
  mutable ub : int array;
  mutable init_lb : int array;
  mutable init_ub : int array;
  mutable is_bool : Bytes.t;
  mutable tr_lit : int array;
  mutable tr_bound : int array;
  mutable tr_prev : int array;
  mutable tr_level : int array;
  mutable tr_rpos : int array;
  mutable tr_rlen : int array;
  mutable tr_len : int;
  mutable lim : int array;
  mutable level : int;
  mutable low_water : int;
  mutable last_lo : int array;
  mutable last_hi : int array;
  mutable rs : int array;
  mutable rs_len : int;
  mutable cl_arena : int array;
  mutable cl_top : int;
  mutable cl_start : int array;
  mutable n_clauses : int;
  clause_occs : occs;
  mutable n_root_clauses : int;
  mutable n_prob_clauses : int;
  mutable n_clean : int;
  mutable hs_flags : Bytes.t;
  mutable hs_mark : Bytes.t;
  mutable an_code : int array;
  mutable an_bound : int array;
  mutable cn_head : int array;
  mutable cn_const : int array;
  mutable lin_off : int array;
  mutable lin_coef : int array;
  mutable lin_var : int array;
  constr_occs : occs;
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  heap : Heap.t;
  mutable phase : bool array;
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_learned : int;
  mutable n_jconflicts : int;
  mutable n_final_checks : int;
  mutable n_reductions : int;
  (* interval-split decisions: per-variable shave-streak counters feed
     a candidate heap the solver bisects from.  The counters are plain
     ints updated on every word-level narrowing regardless of whether
     observability is attached, so observing a solve can never change
     it. *)
  mutable split_streak : int array;
  mutable split_dir : bool array;
  split_heap : Heap.t;
  mutable split : bool;
  mutable n_splits : int;
  mutable obs : Obs.t;
}

(* a narrowing counts toward a variable's streak when it shaves at
   most [split_max_shave] units off a domain still at least
   [split_min_width] wide; [split_streak_limit] consecutive such
   shaves nominate the variable for bisection.  The width floor is
   deliberately far below Forensics.stall_min_width: splitting must
   keep chasing the crawl down to small domains, while stall
   *reporting* only cares about the pathological wide ones. *)
let split_max_shave = 8
let split_streak_limit = 512
let split_min_width = 16

let decision_level s = s.level

(* the Boolean map: one byte per variable, filled from the problem's
   kinds when the variable is loaded *)
let is_bool s v = Bytes.get s.is_bool v <> '\000'

(* canonical (Ge (v, k)) / canonical (Le (v, k)), building one atom *)
let mk_lo s v k =
  if not (is_bool s v) then Ge (v, k)
  else if k >= 1 then Pos v
  else invalid_arg "State.canonical: trivial Boolean atom"

let mk_hi s v k =
  if not (is_bool s v) then Le (v, k)
  else if k <= 0 then Neg v
  else invalid_arg "State.canonical: trivial Boolean atom"

let canonical s a =
  match a with
  | Ge (v, k) when is_bool s v -> mk_lo s v k
  | Le (v, k) when is_bool s v -> mk_hi s v k
  | a -> a

(* every atom is a lower bound (Pos v is v >= 1, Ge) or an upper bound
   (Neg v is v <= 0, Le); the kernel matches on the constructors
   directly so that no query allocates *)
let entailed s = function
  | Pos v -> s.lb.(v) >= 1
  | Ge (v, k) -> s.lb.(v) >= k
  | Neg v -> s.ub.(v) <= 0
  | Le (v, k) -> s.ub.(v) <= k

let falsified s = function
  | Pos v -> s.ub.(v) < 1
  | Ge (v, k) -> s.ub.(v) < k
  | Neg v -> s.lb.(v) > 0
  | Le (v, k) -> s.lb.(v) > k

let bool_value s v =
  if s.lb.(v) >= 1 then 1 else if s.ub.(v) <= 0 then 0 else -1

let dom s v = Interval.make s.lb.(v) s.ub.(v)

let note_shave s v ~shaved ~width =
  if shaved <= split_max_shave && width >= split_min_width then begin
    let n = s.split_streak.(v) + 1 in
    s.split_streak.(v) <- n;
    if n >= split_streak_limit && s.split && not (Heap.mem s.split_heap v) then
      Heap.insert s.split_heap s.activity v
  end
  else s.split_streak.(v) <- 0

(* ---- the reason arena ----

   Two ints per atom: [code = v lsl 2 lor kind] (kind 0 Pos, 1 Neg,
   2 Ge, 3 Le, the constructor kept so every reason reads back literal
   for literal) and the bound, 1 for Pos and 0 for Neg.  Kind bit 0
   is the side: clear for a lower bound [v >= k], set for an upper
   bound [v <= k]. *)

let code_var code = code lsr 2
let code_kind code = code land 3
let code_lower code = code land 1 = 0

let atom_of_code code k =
  let v = code lsr 2 in
  match code land 3 with
  | 0 -> Pos v
  | 1 -> Neg v
  | 2 -> Ge (v, k)
  | _ -> Le (v, k)

let reason_mark s = s.rs_len

let push_code s code k =
  let i = 2 * s.rs_len in
  if i + 2 > Array.length s.rs then begin
    let b = Array.make (2 * (i + 2)) 0 in
    Array.blit s.rs 0 b 0 i;
    s.rs <- b
  end;
  s.rs.(i) <- code;
  s.rs.(i + 1) <- k;
  s.rs_len <- s.rs_len + 1

let atom_code = function
  | Pos v -> v lsl 2
  | Neg v -> (v lsl 2) lor 1
  | Ge (v, _) -> (v lsl 2) lor 2
  | Le (v, _) -> (v lsl 2) lor 3

let atom_bound = function Pos _ -> 1 | Neg _ -> 0 | Ge (_, k) | Le (_, k) -> k

let reason_push s a = push_code s (atom_code a) (atom_bound a)

let reason_push_lit s v pos =
  if pos then push_code s (v lsl 2) 1 else push_code s ((v lsl 2) lor 1) 0

(* the negation of an atom in arena form: the other side, one step
   past the bound ([Pos] and [Neg] included, bounds 1 and 0) *)
let push_neg_code s code k =
  push_code s (code lxor 1) (if code land 1 = 0 then k - 1 else k + 1)

let reason_push_lo s v k =
  if not (is_bool s v) then push_code s ((v lsl 2) lor 2) k
  else if k >= 1 then push_code s (v lsl 2) 1
  else invalid_arg "State.canonical: trivial Boolean atom"

let reason_push_hi s v k =
  if not (is_bool s v) then push_code s ((v lsl 2) lor 3) k
  else if k <= 0 then push_code s ((v lsl 2) lor 1) 0
  else invalid_arg "State.canonical: trivial Boolean atom"

(* the [n] arena atoms from [pos], as an array *)
let arena_atoms s pos n =
  Array.init n (fun j ->
      let i = 2 * (pos + j) in
      atom_of_code s.rs.(i) s.rs.(i + 1))

(* the atoms written since [mark]; the arena drops them *)
let take_reason s mark =
  let a = arena_atoms s mark (s.rs_len - mark) in
  s.rs_len <- mark;
  a

(* ---- the trail ---- *)

let trail_length s = s.tr_len
let trail_var s i = s.tr_lit.(i) lsr 1
let trail_lower s i = s.tr_lit.(i) land 1 = 0
let trail_bound s i = s.tr_bound.(i)
let trail_level s i = s.tr_level.(i)
let trail_is_decision s i = s.tr_rlen.(i) < 0

let trail_atom s i =
  let v = trail_var s i in
  if trail_lower s i then mk_lo s v s.tr_bound.(i) else mk_hi s v s.tr_bound.(i)

let trail_reason s i =
  if s.tr_rlen.(i) < 0 then None else Some (arena_atoms s s.tr_rpos.(i) s.tr_rlen.(i))

let grow_trail s =
  let n = 2 * Array.length s.tr_lit in
  let g a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 s.tr_len;
    b
  in
  s.tr_lit <- g s.tr_lit;
  s.tr_bound <- g s.tr_bound;
  s.tr_prev <- g s.tr_prev;
  s.tr_level <- g s.tr_level;
  s.tr_rpos <- g s.tr_rpos;
  s.tr_rlen <- g s.tr_rlen

(* one bound event: [side] 0 raises [v]'s lower bound to [k], 1
   lowers its upper bound, [prev] is the variable's previous event on
   that side; the reason is the arena from [mark] (a decision when
   [mark] < 0) *)
let push_event s v side k prev mark =
  let i = s.tr_len in
  if i = Array.length s.tr_lit then grow_trail s;
  s.tr_lit.(i) <- (v lsl 1) lor side;
  s.tr_bound.(i) <- k;
  s.tr_prev.(i) <- prev;
  s.tr_level.(i) <- s.level;
  if mark < 0 then begin
    s.tr_rpos.(i) <- s.rs_len;
    s.tr_rlen.(i) <- -1
  end
  else begin
    s.tr_rpos.(i) <- mark;
    s.tr_rlen.(i) <- s.rs_len - mark
  end;
  s.tr_len <- i + 1;
  i

(* One word narrowing under observation: the width histogram and, with
   forensics attached, the counts of the variable and of the constraint
   being propagated, written here rather than through a call each.  A
   narrowing past the table's stall gate goes on to [Obs.stall_step]. *)
let[@inline] observe_narrow s v ~shaved ~width =
  Hist.observe s.obs.Obs.interval_width width;
  match s.obs.Obs.forensics with
  | Some f when v < Array.length f.Forensics.v_narrows ->
    f.Forensics.v_narrows.(v) <- f.Forensics.v_narrows.(v) + 1;
    f.Forensics.v_shaved.(v) <- f.Forensics.v_shaved.(v) + shaved;
    let c = f.Forensics.cur in
    if c >= 0 then begin
      f.Forensics.c_narrows.(c) <- f.Forensics.c_narrows.(c) + 1;
      f.Forensics.c_shaved.(c) <- f.Forensics.c_shaved.(c) + shaved
    end;
    if width >= f.Forensics.stall_gate then
      Obs.stall_step s.obs f ~var:v ~shaved ~width
  | _ -> ()

(* [v >= k] with the reason written since [mark]; an entailed bound
   drops the reason *)
let assert_lo s v k mark =
  if k > s.lb.(v) then begin
    if k > s.ub.(v) then begin
      (* the reason, then the opposing bound *)
      let mark = if mark < 0 then s.rs_len else mark in
      reason_push_hi s v (k - 1);
      raise (Conflict (take_reason s mark))
    end;
    let prev = s.lb.(v) in
    let i = push_event s v 0 k s.last_lo.(v) mark in
    s.last_lo.(v) <- i;
    s.lb.(v) <- k;
    if is_bool s v then (if k = 1 then s.phase.(v) <- true)
    else begin
      let width = s.ub.(v) - s.lb.(v) in
      s.split_dir.(v) <- true;
      note_shave s v ~shaved:(k - prev) ~width;
      if s.obs.Obs.enabled then observe_narrow s v ~shaved:(k - prev) ~width
    end
  end
  else if mark >= 0 then s.rs_len <- mark

let assert_hi s v k mark =
  if k < s.ub.(v) then begin
    if k < s.lb.(v) then begin
      let mark = if mark < 0 then s.rs_len else mark in
      reason_push_lo s v (k + 1);
      raise (Conflict (take_reason s mark))
    end;
    let prev = s.ub.(v) in
    let i = push_event s v 1 k s.last_hi.(v) mark in
    s.last_hi.(v) <- i;
    s.ub.(v) <- k;
    if is_bool s v then (if k = 0 then s.phase.(v) <- false)
    else begin
      let width = s.ub.(v) - s.lb.(v) in
      s.split_dir.(v) <- false;
      note_shave s v ~shaved:(prev - k) ~width;
      if s.obs.Obs.enabled then observe_narrow s v ~shaved:(prev - k) ~width
    end
  end
  else if mark >= 0 then s.rs_len <- mark

(* the canonical forms: [mk_lo s v k] / [mk_hi s v k] asserted *)
let assert_lo_canon s v k mark =
  if not (is_bool s v) then assert_lo s v k mark
  else if k >= 1 then assert_lo s v 1 mark
  else invalid_arg "State.canonical: trivial Boolean atom"

let assert_hi_canon s v k mark =
  if not (is_bool s v) then assert_hi s v k mark
  else if k <= 0 then assert_hi s v 0 mark
  else invalid_arg "State.canonical: trivial Boolean atom"

let assert_from s a mark =
  match a with
  | Pos v -> assert_lo s v 1 mark
  | Ge (v, k) -> assert_lo s v k mark
  | Neg v -> assert_hi s v 0 mark
  | Le (v, k) -> assert_hi s v k mark

let assert_atom s a reason =
  match reason with
  | None -> assert_from s a (-1)
  | Some r ->
    let mark = s.rs_len in
    Array.iter (reason_push s) r;
    assert_from s a mark

(* ---- the clause arena ----

   Clause [ci] is the slot of [cl_arena] from [cl_start.(ci)]: a header
   [n lsl 1 lor root] (n atoms; bit 0 set for a problem clause), then
   its atoms in order, each in the reason arena's code form.  A Boolean
   atom is its code alone, since its bound is implied (1 for [Pos], 0
   for [Neg]); a bound atom is its code and then its bound.  The slots
   tile [0, cl_top) in index order; an in-place strengthening leaves a
   gap behind the shortened slot until the next compaction. *)

let[@inline] code_bound a i =
  let code = a.(i) in
  if code land 2 = 0 then 1 - (code land 1) else a.(i + 1)

let[@inline] next_atom a i = if a.(i) land 2 = 0 then i + 1 else i + 2

let clause_len s ci = s.cl_arena.(s.cl_start.(ci)) lsr 1
let is_root_clause s ci = s.cl_arena.(s.cl_start.(ci)) land 1 = 1

let clause s ci =
  let a = s.cl_arena in
  let p = s.cl_start.(ci) in
  let i = ref (p + 1) in
  Array.init (a.(p) lsr 1) (fun _ ->
      let atom = atom_of_code a.(!i) (code_bound a !i) in
      i := next_atom a !i;
      atom)

(* the negations of clause [ci]'s atoms but the [skip]th, in order,
   written to the reason arena; the position of the [skip]th *)
let push_negations s ci skip =
  let a = s.cl_arena in
  let p = s.cl_start.(ci) in
  let at = ref (-1) and i = ref (p + 1) in
  for j = 0 to (a.(p) lsr 1) - 1 do
    if j = skip then at := !i else push_neg_code s a.(!i) (code_bound a !i);
    i := next_atom a !i
  done;
  !at

let assert_unit s ci u =
  let mark = s.rs_len in
  let i = push_negations s ci u in
  let a = s.cl_arena in
  let code = a.(i) and k = code_bound a i in
  if code land 1 = 0 then assert_lo s (code lsr 2) k mark
  else assert_hi s (code lsr 2) k mark

let clause_conflict s ci =
  let mark = s.rs_len in
  ignore (push_negations s ci (-1));
  raise (Conflict (take_reason s mark))

(* [a] with room for [need] ints, its first [used] kept.  It doubles:
   every array it drops is garbage on the major heap until a cycle
   ends, and a smaller step drops more of them (an eighth: 3 MB more
   peak RSS on b13_2(100)) *)
let reserve a used need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (max 16 (2 * Array.length a))) 0 in
    Array.blit a 0 b 0 used;
    b
  end

let new_level s =
  s.lim <- reserve s.lim s.level (s.level + 1);
  s.lim.(s.level) <- s.tr_len;
  s.level <- s.level + 1

(* only events move a bound, so a variable's bound is its newest
   event's, or the initial one: undoing an event restores the bound
   of the event before it *)
let backtrack_to s lvl =
  if s.level > lvl then begin
    let bound = s.lim.(lvl) in
    if bound < s.tr_len then s.rs_len <- s.tr_rpos.(bound);
    while s.tr_len > bound do
      let i = s.tr_len - 1 in
      s.tr_len <- i;
      let v = trail_var s i in
      let p = s.tr_prev.(i) in
      if trail_lower s i then begin
        s.lb.(v) <- (if p >= 0 then s.tr_bound.(p) else s.init_lb.(v));
        s.last_lo.(v) <- p
      end
      else begin
        s.ub.(v) <- (if p >= 0 then s.tr_bound.(p) else s.init_ub.(v));
        s.last_hi.(v) <- p
      end;
      if is_bool s v && bool_value s v = -1 then Heap.insert s.heap s.activity v
    done;
    s.level <- lvl;
    s.qhead <- min s.qhead bound;
    if bound < s.low_water then s.low_water <- bound
  end

(* each side's events chain newest first through [tr_prev], with
   decreasing (lower) / increasing (upper) bounds; the entailing entry
   is the oldest one whose bound still entails *)
let entailing_lo s v k =
  if s.init_lb.(v) >= k then -1
  else begin
    let best = ref (-1) and i = ref s.last_lo.(v) in
    while !i >= 0 && s.tr_bound.(!i) >= k do
      best := !i;
      i := s.tr_prev.(!i)
    done;
    !best
  end

let entailing_hi s v k =
  if s.init_ub.(v) <= k then -1
  else begin
    let best = ref (-1) and i = ref s.last_hi.(v) in
    while !i >= 0 && s.tr_bound.(!i) <= k do
      best := !i;
      i := s.tr_prev.(!i)
    done;
    !best
  end

let entailing_code s code k =
  if code_lower code then entailing_lo s (code_var code) k
  else entailing_hi s (code_var code) k

let entailing_entry s a = entailing_code s (atom_code a) (atom_bound a)

(* register clause [ci] in the occurrence lists of its variables;
   [ci] is the newest index registered, so a variable already
   registered for this clause has it in its last slot *)
let register_clause s ci =
  let o = s.clause_occs and a = s.cl_arena in
  let p = s.cl_start.(ci) in
  let i = ref (p + 1) in
  for _ = 1 to a.(p) lsr 1 do
    let v = a.(!i) lsr 2 in
    let n = o.n_occ.(v) in
    if n = 0 || o.occ.(v).(n - 1) <> ci then occs_push o v ci;
    i := next_atom a !i
  done

(* the ints of [cl]'s slot, header included *)
let slot_ints cl =
  Array.fold_left (fun w at -> match at with Pos _ | Neg _ -> w + 1 | _ -> w + 2) 1 cl

let add_clause s ?(root = false) cl =
  let ci = s.n_clauses and p = s.cl_top in
  let width = slot_ints cl in
  s.cl_arena <- reserve s.cl_arena p (p + width);
  s.cl_start <- reserve s.cl_start ci (ci + 1);
  let a = s.cl_arena in
  a.(p) <- (Array.length cl lsl 1) lor Bool.to_int root;
  let i = ref (p + 1) in
  Array.iter
    (fun at ->
       a.(!i) <- atom_code at;
       (match at with
        | Pos _ | Neg _ -> incr i
        | Ge (_, k) | Le (_, k) ->
          a.(!i + 1) <- k;
          i := !i + 2))
    cl;
  s.cl_top <- p + width;
  s.cl_start.(ci) <- p;
  s.n_clauses <- ci + 1;
  if root then s.n_root_clauses <- s.n_root_clauses + 1;
  register_clause s ci

(* the ints of clause [ci]'s slot, header included *)
let slot_width s ci =
  let a = s.cl_arena in
  let p = s.cl_start.(ci) in
  let i = ref (p + 1) in
  for _ = 1 to a.(p) lsr 1 do
    i := next_atom a !i
  done;
  !i - p

(* clause [ci]'s atoms, in order, as codes and bounds *)
let read_clause s ci codes bounds =
  let a = s.cl_arena in
  let p = s.cl_start.(ci) in
  let i = ref (p + 1) in
  for j = 0 to (a.(p) lsr 1) - 1 do
    codes.(j) <- a.(!i);
    bounds.(j) <- code_bound a !i;
    i := next_atom a !i
  done

(* every variable of clause [ci] has a non-zero byte in [marks] *)
let vars_marked s ci marks =
  let a = s.cl_arena in
  let p = s.cl_start.(ci) in
  let ok = ref true and i = ref (p + 1) in
  for _ = 1 to a.(p) lsr 1 do
    if Bytes.get marks (a.(!i) lsr 2) = '\000' then ok := false;
    i := next_atom a !i
  done;
  !ok

(* remove the atoms of clause [ci] whose ordinals [drop] selects,
   keeping the rest in order *)
let drop_atoms s ci drop =
  let a = s.cl_arena in
  let p = s.cl_start.(ci) in
  let w = ref (p + 1) and i = ref (p + 1) and kept = ref 0 in
  for j = 0 to (a.(p) lsr 1) - 1 do
    let code = a.(!i) and k = code_bound a !i and next = next_atom a !i in
    if not (drop j) then begin
      a.(!w) <- code;
      if code land 2 = 0 then incr w
      else begin
        a.(!w + 1) <- k;
        w := !w + 2
      end;
      incr kept
    end;
    i := next
  done;
  a.(p) <- (!kept lsl 1) lor (a.(p) land 1)

(* in-order compaction: slide the kept slots down over the dropped ones
   (and over the gaps that strengthening left) and re-register the
   survivors, which yields exactly the occurrence lists that adding
   them afresh in order would.  The clean prefix shrinks to the kept
   clauses that were in it — any subset of a pairwise-checked set still
   is one. *)
let compact_clauses s ~keep =
  let a = s.cl_arena in
  let j = ref 0 and top = ref 0 and clean = ref 0 and roots = ref 0 in
  for ci = 0 to s.n_clauses - 1 do
    if keep ci then begin
      let p = s.cl_start.(ci) and w = slot_width s ci in
      Array.blit a p a !top w;
      s.cl_start.(!j) <- !top;
      if a.(!top) land 1 = 1 then incr roots;
      if ci < s.n_clean then incr clean;
      top := !top + w;
      incr j
    end
  done;
  s.n_clauses <- !j;
  s.cl_top <- !top;
  s.n_root_clauses <- !roots;
  s.n_clean <- !clean;
  occs_clear s.clause_occs;
  for ci = 0 to !j - 1 do
    register_clause s ci
  done

(* in a session, root (problem) clauses may arrive after learned ones,
   so "root" is a per-clause flag rather than a prefix of the database *)
let reduce_clauses s ~keep_recent =
  let total = s.n_clauses in
  if total - s.n_root_clauses > keep_recent then begin
    let cutoff = total - keep_recent in
    compact_clauses s ~keep:(fun ci ->
        ci >= cutoff || is_root_clause s ci || clause_len s ci <= 4);
    s.n_reductions <- s.n_reductions + 1
  end

let bump_var s v =
  s.var_inc <-
    Rtlsat_sat.Search.bump s.heap s.activity ~nvars:s.nv s.var_inc v;
  Heap.bumped s.split_heap s.activity v

(* divided by 0.95 where Cdcl multiplies by 1/0.95: the two increments
   differ in the last bit from the second decay on, and each kernel's
   frozen reference (test/state_ref.ml, test/cdcl_ref.ml) pins its own
   form *)
let decay_activities s = s.var_inc <- s.var_inc /. 0.95

let pp_atom s fmt a = pp_atom ~name:(Problem.var_name s.prob) () fmt a

let pp_trail s fmt () =
  for i = 0 to s.tr_len - 1 do
    Format.fprintf fmt "%4d L%d %a%s@." i s.tr_level.(i) (pp_atom s) (trail_atom s i)
      (if trail_is_decision s i then " (decision)" else "")
  done

(* The constraint tables, loaded from constraint [from] on, with the
   constraint occurrence lists.  [cn_head.(ci)] is the kind (0
   [Lin_le], 1 [Lin_eq], 2 [Pred], 3 [Mux_w]), with a predicate's or a
   multiplexer's Boolean ([b], [sel]) as [var lsl 2 lor kind];
   [cn_const.(ci)] is a linear constraint's constant.  [lin_coef] and
   [lin_var] hold constraint [ci]'s slots [lin_off.(ci)] to
   [lin_off.(ci + 1) - 1]: a linear constraint's terms in list order,
   or a multiplexer's words [t], [e], [z] (coefficients 0). *)
let cn_slots = function
  | Lin_le e | Lin_eq e | Pred { e; _ } -> e.terms
  | Mux_w { t; e; z; _ } -> [ (0, t); (0, e); (0, z) ]

let kind_head = function
  | Lin_le _ -> 0
  | Lin_eq _ -> 1
  | Pred { b; _ } -> (b lsl 2) lor 2
  | Mux_w { sel; _ } -> (sel lsl 2) lor 3

let constant = function Lin_le e | Lin_eq e | Pred { e; _ } -> e.const | Mux_w _ -> 0

let load_constrs s from =
  let n = Problem.n_constrs s.prob in
  let grown a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 from;
    b
  in
  let head = grown s.cn_head and const = grown s.cn_const in
  let off = Array.make (n + 1) 0 in
  Array.blit s.lin_off 0 off 0 (from + 1);
  for ci = from to n - 1 do
    let c = Problem.constr_at s.prob ci in
    head.(ci) <- kind_head c;
    const.(ci) <- constant c;
    off.(ci + 1) <- off.(ci) + List.length (cn_slots c);
    List.iter (fun v -> occs_push s.constr_occs v ci) (constr_vars c)
  done;
  let coef = Array.make off.(n) 0 and var = Array.make off.(n) 0 in
  Array.blit s.lin_coef 0 coef 0 off.(from);
  Array.blit s.lin_var 0 var 0 off.(from);
  for ci = from to n - 1 do
    List.iteri
      (fun j (c, v) ->
         coef.(off.(ci) + j) <- c;
         var.(off.(ci) + j) <- v)
      (cn_slots (Problem.constr_at s.prob ci))
  done;
  s.cn_head <- head;
  s.cn_const <- const;
  s.lin_off <- off;
  s.lin_coef <- coef;
  s.lin_var <- var

(* the Boolean map with variables [from..] loaded *)
let load_kinds s from =
  let nv = Problem.n_vars s.prob in
  let b = Bytes.make nv '\000' in
  Bytes.blit s.is_bool 0 b 0 from;
  for v = from to nv - 1 do
    if Problem.is_bool_var s.prob v then Bytes.set b v '\001'
  done;
  s.is_bool <- b

let create prob =
  let nv = Problem.n_vars prob in
  (* a root propagation pushes fewer events than there are variables
     and writes about one reason atom per two events, so this
     capacity rarely grows: a large array that grows is reallocated
     on the major heap, which costs GC work on every copy *)
  let trail_capacity = max 256 nv in
  let lb = Array.make nv 0 and ub = Array.make nv 0 in
  for v = 0 to nv - 1 do
    let d = Problem.initial_domain prob v in
    lb.(v) <- Interval.lo d;
    ub.(v) <- Interval.hi d
  done;
  (* the clause arena and index hold the problem's clauses and an
     eighth more for the first learned ones before they double *)
  let width = ref 0 in
  Problem.iter_clauses (fun cl -> width := !width + slot_ints cl) prob;
  let ncl = Problem.n_clauses prob in
  let s =
    {
      prob;
      nv;
      lb;
      ub;
      init_lb = Array.copy lb;
      init_ub = Array.copy ub;
      is_bool = Bytes.empty;
      tr_lit = Array.make trail_capacity 0;
      tr_bound = Array.make trail_capacity 0;
      tr_prev = Array.make trail_capacity 0;
      tr_level = Array.make trail_capacity 0;
      tr_rpos = Array.make trail_capacity 0;
      tr_rlen = Array.make trail_capacity 0;
      tr_len = 0;
      lim = Array.make 16 0;
      level = 0;
      low_water = 0;
      last_lo = Array.make nv (-1);
      last_hi = Array.make nv (-1);
      rs = Array.make trail_capacity 0;
      rs_len = 0;
      cl_arena = Array.make (!width + (!width / 8)) 0;
      cl_top = 0;
      cl_start = Array.make (ncl + (ncl / 8)) 0;
      n_clauses = 0;
      clause_occs = occs_make nv;
      n_root_clauses = 0;
      n_prob_clauses = 0;
      n_clean = 0;
      hs_flags = Bytes.empty;
      hs_mark = Bytes.empty;
      an_code = [||];
      an_bound = [||];
      cn_head = [||];
      cn_const = [||];
      lin_off = [| 0 |];
      lin_coef = [||];
      lin_var = [||];
      constr_occs = occs_make nv;
      qhead = 0;
      activity = Array.make nv 0.0;
      var_inc = 1.0;
      heap = Heap.create ();
      phase = Array.make nv false;
      n_decisions = 0;
      n_conflicts = 0;
      n_propagations = 0;
      n_learned = 0;
      n_jconflicts = 0;
      n_final_checks = 0;
      n_reductions = 0;
      split_streak = Array.make nv 0;
      split_dir = Array.make nv true;
      split_heap = Heap.create ();
      split = false;
      n_splits = 0;
      obs = Obs.disabled;
    }
  in
  load_kinds s 0;
  load_constrs s 0;
  Problem.iter_clauses (fun cl -> add_clause s ~root:true cl) prob;
  s.n_prob_clauses <- ncl;
  (* decision heap holds every Boolean variable *)
  for v = 0 to nv - 1 do
    if is_bool s v then Heap.insert s.heap s.activity v
  done;
  s

(* session support: absorb everything appended to the problem since
   the last sync.  Variable numbering is append-only on both sides, so
   existing indices — and every learned clause and activity referring
   to them — stay valid; only the per-variable arrays reallocate.
   Must run at decision level 0 (bounds arrays hold root values). *)
let grow s =
  if s.level <> 0 then invalid_arg "State.grow: not at level 0";
  let nv = Problem.n_vars s.prob in
  if nv > s.nv then begin
    let old = s.nv in
    let grown a fill =
      let b = Array.make nv fill in
      Array.blit a 0 b 0 old;
      b
    in
    s.lb <- grown s.lb 0;
    s.ub <- grown s.ub 0;
    for v = old to nv - 1 do
      let d = Problem.initial_domain s.prob v in
      s.lb.(v) <- Interval.lo d;
      s.ub.(v) <- Interval.hi d
    done;
    s.init_lb <- grown s.init_lb 0;
    s.init_ub <- grown s.init_ub 0;
    Array.blit s.lb old s.init_lb old (nv - old);
    Array.blit s.ub old s.init_ub old (nv - old);
    load_kinds s old;
    s.last_lo <- grown s.last_lo (-1);
    s.last_hi <- grown s.last_hi (-1);
    occs_grow s.clause_occs nv;
    occs_grow s.constr_occs nv;
    s.activity <- grown s.activity 0.0;
    s.phase <- grown s.phase false;
    s.split_streak <- grown s.split_streak 0;
    s.split_dir <- grown s.split_dir true;
    s.nv <- nv;
    for v = old to nv - 1 do
      if is_bool s v then Heap.insert s.heap s.activity v
    done
  end;
  let old_cn = Array.length s.cn_head in
  if Problem.n_constrs s.prob > old_cn then load_constrs s old_cn;
  let ncl = Problem.n_clauses s.prob in
  for i = s.n_prob_clauses to ncl - 1 do
    add_clause s ~root:true (Problem.clause_at s.prob i)
  done;
  s.n_prob_clauses <- ncl
