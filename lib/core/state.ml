open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec
module Problem = Rtlsat_constr.Problem
module Interval = Rtlsat_interval.Interval
module Obs = Rtlsat_obs.Obs
module Hist = Rtlsat_obs.Hist

type reason = atom array option

type entry = {
  eatom : atom;
  prev : int;
  elevel : int;
  ereason : reason;
}

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
  trail : entry Vec.t;
  lim : int Vec.t;
  mutable lo_ev : (int * int) list array;
  mutable hi_ev : (int * int) list array;
  clauses : clause Vec.t;
  root_flags : bool Vec.t;
  clause_occs : occs;
  mutable n_root_clauses : int;
  mutable n_prob_clauses : int;
  mutable n_clean : int;
  mutable hs_flags : Bytes.t;
  mutable hs_mark : Bytes.t;
  mutable constrs : constr array;
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

let decision_level s = Vec.length s.lim

(* canonical (Ge (v, k)) / canonical (Le (v, k)), building one atom *)
let mk_lo s v k =
  if not (Problem.is_bool_var s.prob v) then Ge (v, k)
  else if k >= 1 then Pos v
  else invalid_arg "State.canonical: trivial Boolean atom"

let mk_hi s v k =
  if not (Problem.is_bool_var s.prob v) then Le (v, k)
  else if k <= 0 then Neg v
  else invalid_arg "State.canonical: trivial Boolean atom"

let canonical s a =
  match a with
  | Ge (v, k) when Problem.is_bool_var s.prob v -> mk_lo s v k
  | Le (v, k) when Problem.is_bool_var s.prob v -> mk_hi s v k
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

let assert_lo s v k reason =
  if k > s.lb.(v) then begin
    if k > s.ub.(v) then begin
      let opposing = mk_hi s v (k - 1) in
      let expl = match reason with None -> [||] | Some r -> r in
      raise (Conflict (Array.append expl [| opposing |]))
    end;
    let idx = Vec.length s.trail in
    let prev = s.lb.(v) in
    Vec.push s.trail
      { eatom = mk_lo s v k; prev; elevel = decision_level s; ereason = reason };
    s.lb.(v) <- k;
    s.lo_ev.(v) <- (k, idx) :: s.lo_ev.(v);
    if k = 1 && Problem.is_bool_var s.prob v then s.phase.(v) <- true
    else if not (Problem.is_bool_var s.prob v) then begin
      let width = s.ub.(v) - s.lb.(v) in
      s.split_dir.(v) <- true;
      note_shave s v ~shaved:(k - prev) ~width;
      if s.obs.Obs.enabled then begin
        Hist.observe s.obs.Obs.interval_width width;
        Obs.note_narrow s.obs ~var:v ~shaved:(k - prev) ~width
      end
    end
  end

let assert_hi s v k reason =
  if k < s.ub.(v) then begin
    if k < s.lb.(v) then begin
      let opposing = mk_lo s v (k + 1) in
      let expl = match reason with None -> [||] | Some r -> r in
      raise (Conflict (Array.append expl [| opposing |]))
    end;
    let idx = Vec.length s.trail in
    let prev = s.ub.(v) in
    Vec.push s.trail
      { eatom = mk_hi s v k; prev; elevel = decision_level s; ereason = reason };
    s.ub.(v) <- k;
    s.hi_ev.(v) <- (k, idx) :: s.hi_ev.(v);
    if k = 0 && Problem.is_bool_var s.prob v then s.phase.(v) <- false
    else if not (Problem.is_bool_var s.prob v) then begin
      let width = s.ub.(v) - s.lb.(v) in
      s.split_dir.(v) <- false;
      note_shave s v ~shaved:(prev - k) ~width;
      if s.obs.Obs.enabled then begin
        Hist.observe s.obs.Obs.interval_width width;
        Obs.note_narrow s.obs ~var:v ~shaved:(prev - k) ~width
      end
    end
  end

let assert_atom s a reason =
  match a with
  | Pos v -> assert_lo s v 1 reason
  | Ge (v, k) -> assert_lo s v k reason
  | Neg v -> assert_hi s v 0 reason
  | Le (v, k) -> assert_hi s v k reason

let new_level s = Vec.push s.lim (Vec.length s.trail)

let backtrack_to s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.lim lvl in
    while Vec.length s.trail > bound do
      let e = Vec.pop s.trail in
      let v = atom_var e.eatom in
      (match e.eatom with
       | Pos _ | Ge _ ->
         s.lb.(v) <- e.prev;
         s.lo_ev.(v) <- List.tl s.lo_ev.(v)
       | Neg _ | Le _ ->
         s.ub.(v) <- e.prev;
         s.hi_ev.(v) <- List.tl s.hi_ev.(v));
      if Problem.is_bool_var s.prob v && bool_value s v = -1 then
        Heap.insert s.heap s.activity v
    done;
    Vec.shrink s.lim lvl;
    s.qhead <- min s.qhead bound
  end

(* events newest first with decreasing (lo) / increasing (hi) values;
   the entailing entry is the oldest one whose value still entails *)
let entailing_lo s v k =
  if s.init_lb.(v) >= k then None
  else begin
    let rec find best = function
      | (value, idx) :: rest when value >= k -> find (Some idx) rest
      | _ -> best
    in
    find None s.lo_ev.(v)
  end

let entailing_hi s v k =
  if s.init_ub.(v) <= k then None
  else begin
    let rec find best = function
      | (value, idx) :: rest when value <= k -> find (Some idx) rest
      | _ -> best
    in
    find None s.hi_ev.(v)
  end

let entailing_entry s = function
  | Pos v -> entailing_lo s v 1
  | Ge (v, k) -> entailing_lo s v k
  | Neg v -> entailing_hi s v 0
  | Le (v, k) -> entailing_hi s v k

(* register clause [ci] in the occurrence lists of its variables;
   [ci] is the newest index registered, so a variable already
   registered for this clause has it in its last slot *)
let register_clause s ci cl =
  let o = s.clause_occs in
  for i = 0 to Array.length cl - 1 do
    let v = atom_var cl.(i) in
    let n = o.n_occ.(v) in
    if n = 0 || o.occ.(v).(n - 1) <> ci then occs_push o v ci
  done

let add_clause s ?(root = false) cl =
  let ci = Vec.length s.clauses in
  Vec.push s.clauses cl;
  Vec.push s.root_flags root;
  if root then s.n_root_clauses <- s.n_root_clauses + 1;
  register_clause s ci cl

let clear_clause_occs s = occs_clear s.clause_occs

let is_root_clause s ci = Vec.get s.root_flags ci

(* in-order compaction: slide the kept clauses (and their root flags)
   down over the dropped ones and re-register the survivors, which
   yields exactly the occurrence lists that adding them afresh in
   order would.  The clean prefix shrinks to the kept clauses that
   were in it — any subset of a pairwise-checked set still is one. *)
let compact_clauses s ~keep =
  let n = Vec.length s.clauses in
  let j = ref 0 and clean = ref 0 and roots = ref 0 in
  for ci = 0 to n - 1 do
    if keep ci then begin
      let root = Vec.get s.root_flags ci in
      Vec.set s.clauses !j (Vec.get s.clauses ci);
      Vec.set s.root_flags !j root;
      if root then incr roots;
      if ci < s.n_clean then incr clean;
      incr j
    end
  done;
  Vec.shrink s.clauses !j;
  Vec.shrink s.root_flags !j;
  s.n_root_clauses <- !roots;
  s.n_clean <- !clean;
  clear_clause_occs s;
  for ci = 0 to !j - 1 do
    register_clause s ci (Vec.get s.clauses ci)
  done

(* in a session, root (problem) clauses may arrive after learned ones,
   so "root" is a per-clause flag rather than a prefix of the database *)
let reduce_clauses s ~keep_recent =
  let total = Vec.length s.clauses in
  if total - s.n_root_clauses > keep_recent then begin
    let cutoff = total - keep_recent in
    compact_clauses s ~keep:(fun ci ->
        ci >= cutoff
        || Vec.get s.root_flags ci
        || Array.length (Vec.get s.clauses ci) <= 4);
    s.n_reductions <- s.n_reductions + 1
  end

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nv - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.bumped s.heap s.activity v;
  Heap.bumped s.split_heap s.activity v

let decay_activities s = s.var_inc <- s.var_inc /. 0.95

let pp_atom s fmt a = pp_atom ~name:(Problem.var_name s.prob) () fmt a

let pp_trail s fmt () =
  Vec.iteri
    (fun i e ->
       Format.fprintf fmt "%4d L%d %a%s@." i e.elevel (pp_atom s) e.eatom
         (match e.ereason with None -> " (decision)" | Some _ -> ""))
    s.trail

let create prob =
  let nv = Problem.n_vars prob in
  let lb = Array.make nv 0 and ub = Array.make nv 0 in
  for v = 0 to nv - 1 do
    let d = Problem.initial_domain prob v in
    lb.(v) <- Interval.lo d;
    ub.(v) <- Interval.hi d
  done;
  let s =
    {
      prob;
      nv;
      lb;
      ub;
      init_lb = Array.copy lb;
      init_ub = Array.copy ub;
      trail = Vec.create ~dummy:{ eatom = Pos 0; prev = 0; elevel = 0; ereason = None } ();
      lim = Vec.create ~dummy:0 ();
      lo_ev = Array.make nv [];
      hi_ev = Array.make nv [];
      clauses = Vec.create ~dummy:[||] ();
      root_flags = Vec.create ~dummy:false ();
      clause_occs = occs_make nv;
      n_root_clauses = 0;
      n_prob_clauses = 0;
      n_clean = 0;
      hs_flags = Bytes.empty;
      hs_mark = Bytes.empty;
      constrs = Problem.constrs prob;
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
  (* clause and constraint occurrence lists *)
  List.iter (fun cl -> add_clause s ~root:true cl) (Problem.clauses prob);
  s.n_prob_clauses <- Problem.n_clauses prob;
  Array.iteri
    (fun ci c ->
       List.iter (fun v -> occs_push s.constr_occs v ci) (constr_vars c))
    s.constrs;
  (* decision heap holds every Boolean variable *)
  for v = 0 to nv - 1 do
    if Problem.is_bool_var prob v then Heap.insert s.heap s.activity v
  done;
  s

(* session support: absorb everything appended to the problem since
   the last sync.  Variable numbering is append-only on both sides, so
   existing indices — and every learned clause and activity referring
   to them — stay valid; only the per-variable arrays reallocate.
   Must run at decision level 0 (bounds arrays hold root values). *)
let grow s =
  if decision_level s <> 0 then invalid_arg "State.grow: not at level 0";
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
    s.lo_ev <- grown s.lo_ev [];
    s.hi_ev <- grown s.hi_ev [];
    occs_grow s.clause_occs nv;
    occs_grow s.constr_occs nv;
    s.activity <- grown s.activity 0.0;
    s.phase <- grown s.phase false;
    s.split_streak <- grown s.split_streak 0;
    s.split_dir <- grown s.split_dir true;
    s.nv <- nv;
    for v = old to nv - 1 do
      if Problem.is_bool_var s.prob v then Heap.insert s.heap s.activity v
    done
  end;
  let old_cn = Array.length s.constrs in
  let ncn = Problem.n_constrs s.prob in
  if ncn > old_cn then begin
    s.constrs <- Problem.constrs s.prob;
    for ci = old_cn to ncn - 1 do
      List.iter (fun v -> occs_push s.constr_occs v ci) (constr_vars s.constrs.(ci))
    done
  end;
  let ncl = Problem.n_clauses s.prob in
  for i = s.n_prob_clauses to ncl - 1 do
    add_clause s ~root:true (Problem.clause_at s.prob i)
  done;
  s.n_prob_clauses <- ncl
