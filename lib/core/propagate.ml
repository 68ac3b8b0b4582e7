open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec
module Obs = Rtlsat_obs.Obs
module Forensics = Rtlsat_obs.Forensics
module Mono = Rtlsat_obs.Mono

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv a b = -(fdiv (-a) b)

(* filler for arrays that are fully written before anyone reads them *)
let dummy_atom = Pos 0

(* ---- clauses ---- *)

(* One pass over clause [c] from atom [j]: [-2] when an atom is
   entailed or a second atom is open (satisfied or undetermined: no-op
   either way), [-1] when every atom is false, else the index of the one
   open atom.  [unit] carries the open atom found so far. *)
let rec scan lb ub c j unit =
  if j = Array.length c then unit
  else
    let st =
      (* 0 falsified, 1 open, 2 entailed *)
      match c.(j) with
      | Pos v -> if lb.(v) >= 1 then 2 else if ub.(v) < 1 then 0 else 1
      | Ge (v, k) -> if lb.(v) >= k then 2 else if ub.(v) < k then 0 else 1
      | Neg v -> if ub.(v) <= 0 then 2 else if lb.(v) > 0 then 0 else 1
      | Le (v, k) -> if ub.(v) <= k then 2 else if lb.(v) > k then 0 else 1
    in
    if st = 0 then scan lb ub c (j + 1) unit
    else if st = 2 || unit >= 0 then -2
    else scan lb ub c (j + 1) j

let check_clause s ci =
  let c = Vec.get s.State.clauses ci in
  let u = scan s.State.lb s.State.ub c 0 (-1) in
  if u = -1 then raise (State.Conflict (Array.map negate_atom c))
  else if u >= 0 then begin
    let n = Array.length c in
    let reason = Array.make (n - 1) dummy_atom in
    for j = 0 to n - 1 do
      if j < u then reason.(j) <- negate_atom c.(j)
      else if j > u then reason.(j - 1) <- negate_atom c.(j)
    done;
    State.assert_atom s c.(u) (Some reason)
  end

(* ---- linear constraints ---- *)

(* Overflow-checked arithmetic.  Encoded coefficients reach 2^60 and
   word bounds 2^61 - 1, so c·bound can exceed the native int range
   (observed by the differential fuzzer: a dead 61-bit shr wrapped
   min_value positive and turned a satisfiable instance Unsat).  An
   evaluation that overflows raises [Overflow] and the corresponding
   check or tightening is skipped — sound, since ICP is optional.  The
   arithmetic is [Rtlsat_num.Checked]'s, minus the options, with a
   native fast path: factors below 2^30 in magnitude cannot overflow
   their product, so the division test is skipped. *)

exception Overflow

let small = 1 lsl 30

let mul c b =
  if c > -small && c < small && b > -small && b < small then c * b
  else
    match Rtlsat_num.Checked.mul c b with
    | Some p -> p
    | None -> raise_notrace Overflow

(* overflow iff a and b share a sign that the sum does not *)
let add a b =
  let s = a + b in
  if a lxor b >= 0 && a lxor s < 0 then raise_notrace Overflow else s

let sub a b = if b = min_int then raise_notrace Overflow else add a (-b)

(* A linear expression is read through [neg]: its terms' coefficients
   negated when set (the [lin_neg] of an equality's second half or a
   false predicate), with the caller passing the matching constant. *)

(* acc + Σ c·(lb.(v) if c > 0 else ub.(v)) over the terms, skipping
   variable [skip], each partial sum checked in term order.  Swapping
   [lb] and [ub] gives the maximum. *)
let rec min_sum lb ub neg skip acc = function
  | [] -> acc
  | (c, v) :: rest ->
    if v = skip then min_sum lb ub neg skip acc rest
    else
      let c = if neg then -c else c in
      min_sum lb ub neg skip (add acc (mul c (if c > 0 then lb.(v) else ub.(v)))) rest

(* Explanations: the bound atom each term's extreme value rests on —
   its lower bound for a minimum when c > 0, flipped by [maxi] —
   keeping only atoms tighter than the initial domain (conflict
   analysis would drop the others, but small explanations are cheap
   here).  Counted first, then written into an exact-size array. *)
let expl_lo maxi c = (c > 0) <> maxi

let tight s lo v =
  if lo then s.State.lb.(v) > s.State.init_lb.(v)
  else s.State.ub.(v) < s.State.init_ub.(v)

let rec expl_count s neg maxi skip n = function
  | [] -> n
  | (c, v) :: rest ->
    let c = if neg then -c else c in
    let n = if v <> skip && tight s (expl_lo maxi c) v then n + 1 else n in
    expl_count s neg maxi skip n rest

let rec expl_fill s neg maxi skip a i = function
  | [] -> ()
  | (c, v) :: rest ->
    let c = if neg then -c else c in
    let lo = expl_lo maxi c in
    if v <> skip && tight s lo v then begin
      a.(i) <-
        (if lo then State.mk_lo s v s.State.lb.(v) else State.mk_hi s v s.State.ub.(v));
      expl_fill s neg maxi skip a (i + 1) rest
    end
    else expl_fill s neg maxi skip a i rest

(* the explanation of the terms but [skip], followed by the predicate
   literal xb / ¬xb ([xpos]) when [xb >= 0] *)
let expl s ~neg ~maxi ~skip ~xb ~xpos terms =
  let n = expl_count s neg maxi skip 0 terms in
  let len = if xb >= 0 then n + 1 else n in
  if len = 0 then [||]
  else begin
    let a = Array.make len dummy_atom in
    expl_fill s neg maxi skip a 0 terms;
    if xb >= 0 then a.(n) <- (if xpos then Pos xb else Neg xb);
    a
  end

(* tighten every term of Σ cᵢvᵢ + k ≤ 0 against the residual minimum of
   the others: m - cᵢ·(bound) from the full minimum [m] when it was
   computable, else the minimum re-summed without vᵢ *)
let rec tighten s neg k xb xpos m m_ok all = function
  | [] -> ()
  | (c, v) :: rest ->
    let c = if neg then -c else c in
    let lb = s.State.lb and ub = s.State.ub in
    let r =
      try
        if m_ok then sub m (mul c (if c > 0 then lb.(v) else ub.(v)))
        else min_sum lb ub neg v k all
      with Overflow -> min_int
    in
    (* min_int: overflowed, or a residual whose negation would *)
    if r <> min_int then begin
      if c > 0 then begin
        (* c·v ≤ -r *)
        let ub' = fdiv (-r) c in
        if ub' < ub.(v) then
          State.assert_atom s (State.mk_hi s v ub')
            (Some (expl s ~neg ~maxi:false ~skip:v ~xb ~xpos all))
      end
      else begin
        (* (-c)·v ≥ r, -c > 0 *)
        let lb' = cdiv r (-c) in
        if lb' > lb.(v) then
          State.assert_atom s (State.mk_lo s v lb')
            (Some (expl s ~neg ~maxi:false ~skip:v ~xb ~xpos all))
      end
    end;
    tighten s neg k xb xpos m m_ok all rest

(* propagate Σ cᵢvᵢ + k ≤ 0 over [terms] read through [neg] *)
let propagate_le s ~neg ~k ~xb ~xpos terms =
  match min_sum s.State.lb s.State.ub neg (-1) k terms with
  | m ->
    if m > 0 then
      raise (State.Conflict (expl s ~neg ~maxi:false ~skip:(-1) ~xb ~xpos terms));
    tighten s neg k xb xpos m true terms terms
  | exception Overflow -> tighten s neg k xb xpos 0 false terms terms

(* whether the minimum (maximum when [lb]/[ub] are swapped) of [e] is
   computable and satisfies [pos] (> 0) or not [pos] (<= 0) *)
let extreme_is lb ub (e : linexpr) ~pos =
  match min_sum lb ub false (-1) e.const e.terms with
  | x -> if pos then x > 0 else x <= 0
  | exception Overflow -> false

(* ---- word multiplexers ---- *)

let sel_atom sel pos = if pos then Pos sel else Neg sel

(* z = x under the selector literal: each direction's bound moves
   across, explained by the selector and the source bound [y]'s when
   it is tighter than the initial domain *)
let sel_reason s sel pos lo y =
  if tight s lo y then
    [| sel_atom sel pos;
       (if lo then State.mk_lo s y s.State.lb.(y) else State.mk_hi s y s.State.ub.(y)) |]
  else [| sel_atom sel pos |]

let mux_equal s sel pos x z =
  let lb = s.State.lb and ub = s.State.ub in
  if lb.(x) > lb.(z) then
    State.assert_atom s (State.mk_lo s z lb.(x)) (Some (sel_reason s sel pos true x));
  if ub.(x) < ub.(z) then
    State.assert_atom s (State.mk_hi s z ub.(x)) (Some (sel_reason s sel pos false x));
  if lb.(z) > lb.(x) then
    State.assert_atom s (State.mk_lo s x lb.(z)) (Some (sel_reason s sel pos true z));
  if ub.(z) < ub.(x) then
    State.assert_atom s (State.mk_hi s x ub.(z)) (Some (sel_reason s sel pos false z))

(* selector implication from disjointness: z outside x's domain
   refutes the arm z = x *)
let mux_disjoint s x z refuted =
  let lb = s.State.lb and ub = s.State.ub in
  if lb.(z) > ub.(x) then
    State.assert_atom s refuted
      (Some [| State.mk_lo s z (ub.(x) + 1); State.mk_hi s x ub.(x) |])
  else if ub.(z) < lb.(x) then
    State.assert_atom s refuted
      (Some [| State.mk_hi s z (lb.(x) - 1); State.mk_lo s x lb.(x) |])

let mux_open s sel t e z =
  let lb = s.State.lb and ub = s.State.ub in
  (* hull narrowing of z *)
  let klo = if lb.(t) <= lb.(e) then lb.(t) else lb.(e) in
  if klo > lb.(z) then
    State.assert_atom s (State.mk_lo s z klo)
      (Some [| State.mk_lo s t klo; State.mk_lo s e klo |]);
  let khi = if ub.(t) >= ub.(e) then ub.(t) else ub.(e) in
  if khi < ub.(z) then
    State.assert_atom s (State.mk_hi s z khi)
      (Some [| State.mk_hi s t khi; State.mk_hi s e khi |]);
  mux_disjoint s t z (Neg sel);
  mux_disjoint s e z (Pos sel)

let propagate_constr s ci =
  match s.State.constrs.(ci) with
  | Lin_le e -> propagate_le s ~neg:false ~k:e.const ~xb:(-1) ~xpos:false e.terms
  | Lin_eq e ->
    propagate_le s ~neg:false ~k:e.const ~xb:(-1) ~xpos:false e.terms;
    propagate_le s ~neg:true ~k:(-e.const) ~xb:(-1) ~xpos:false e.terms
  | Pred { b; e } ->
    (match State.bool_value s b with
     | 1 -> propagate_le s ~neg:false ~k:e.const ~xb:b ~xpos:true e.terms
     (* ¬(e ≤ 0) over integers is -e + 1 ≤ 0 *)
     | 0 -> propagate_le s ~neg:true ~k:(-e.const + 1) ~xb:b ~xpos:false e.terms
     | _ ->
       let lb = s.State.lb and ub = s.State.ub in
       if extreme_is ub lb e ~pos:false then
         State.assert_atom s (Pos b)
           (Some (expl s ~neg:false ~maxi:true ~skip:(-1) ~xb:(-1) ~xpos:false e.terms))
       else if extreme_is lb ub e ~pos:true then
         State.assert_atom s (Neg b)
           (Some (expl s ~neg:false ~maxi:false ~skip:(-1) ~xb:(-1) ~xpos:false e.terms)))
  | Mux_w { sel; t; e; z } ->
    (match State.bool_value s sel with
     | 1 -> mux_equal s sel true t z
     | 0 -> mux_equal s sel false e z
     | _ -> mux_open s sel t e z)

exception Propagation_timeout

(* one wakeup of [ci] under forensics: counted and made the narrowing
   target, and timed when it is the sampled one *)
let wake s f ci =
  if Forensics.constr_enter f ci then begin
    let enter = Mono.now () in
    propagate_constr s ci;
    Forensics.constr_exit_sampled f ~enter ~exit:(Mono.now ())
  end
  else begin
    propagate_constr s ci;
    Forensics.constr_exit f
  end

(* close the run's span, counting one BCP entry per trail entry (and
   the full scan) and one ICP entry per BCP entry that got past its
   clauses: all but the last when the run ended in clauses ([in_bcp]) *)
let close obs fz ~full ~entries ~in_bcp =
  (match fz with Some f -> Forensics.constr_exit f | None -> ());
  if obs.Obs.enabled then begin
    let bcp_calls = if full then entries + 1 else entries in
    Obs.prop_exit obs ~bcp_calls
      ~icp_calls:(if in_bcp then bcp_calls - 1 else bcp_calls)
  end

(* One loop serves both observed and unobserved runs.  With obs
   enabled the run is one span (two clock reads); one trail entry in 16
   is timed on its clause and constraint halves (three reads), and the
   span's time is split between BCP and ICP by the sampled ratio at the
   exit.  With forensics attached, one wakeup in
   [Forensics.sample_period] of each constraint is timed (two reads). *)
let run ?(full = false) ?(deadline = infinity) ?cancel s =
  let obs = s.State.obs in
  let on = obs.Obs.enabled in
  let fz = Obs.forensics obs in
  let q0 = s.State.qhead in
  let in_bcp = ref false in
  (* ICP can tighten a bound by 1 per sweep over a 2^61 domain, so the
     fixpoint loop must watch the clock itself; check sparsely to keep
     the hot path free of syscalls *)
  let fuel = ref 4096 in
  if on then Obs.prop_enter obs;
  match
    if full then begin
      in_bcp := true;
      for ci = 0 to Vec.length s.State.clauses - 1 do
        check_clause s ci
      done;
      in_bcp := false;
      match fz with
      | None ->
        for ci = 0 to Array.length s.State.constrs - 1 do
          propagate_constr s ci
        done
      | Some f ->
        for ci = 0 to Array.length s.State.constrs - 1 do
          wake s f ci
        done
    end;
    (* a split candidate suspends the fixpoint: the solver takes the
       bisection decision first (the queued consequences stay on the
       trail and we resume from qhead afterwards).  With splits off the
       heap is never populated and the loop runs to fixpoint as
       before. *)
    while
      s.State.qhead < Vec.length s.State.trail
      && not (s.State.split && not (Heap.is_empty s.State.split_heap))
    do
      decr fuel;
      if !fuel <= 0 then begin
        fuel := 4096;
        (* the w61 crawl spins here without ever returning to the
           solve loop, so heartbeats must also fire from this gate *)
        if on then
          Obs.heartbeat_tick obs ~decisions:s.State.n_decisions
            ~conflicts:s.State.n_conflicts
            ~propagations:s.State.n_propagations ~splits:s.State.n_splits
            ~lvl:(State.decision_level s);
        if deadline < infinity && Mono.now () > deadline then
          raise Propagation_timeout;
        (match cancel with
         | Some c when Atomic.get c -> raise Propagation_timeout
         | _ -> ())
      end;
      let e = Vec.get s.State.trail s.State.qhead in
      s.State.qhead <- s.State.qhead + 1;
      s.State.n_propagations <- s.State.n_propagations + 1;
      let v = atom_var e.State.eatom in
      let sampled = on && Obs.prop_sample_due obs in
      let t0 = if sampled then Mono.now () else 0.0 in
      in_bcp := true;
      (* both visit orders are newest occurrence first *)
      let o = s.State.clause_occs in
      let a = o.State.occ.(v) in
      for j = o.State.n_occ.(v) - 1 downto 0 do
        check_clause s a.(j)
      done;
      in_bcp := false;
      let t1 = if sampled then Mono.now () else 0.0 in
      let o = s.State.constr_occs in
      let a = o.State.occ.(v) in
      (match fz with
       | None ->
         for j = o.State.n_occ.(v) - 1 downto 0 do
           propagate_constr s a.(j)
         done
       | Some f ->
         for j = o.State.n_occ.(v) - 1 downto 0 do
           wake s f a.(j)
         done);
      if sampled then
        Obs.prop_sample obs ~bcp:(t1 -. t0) ~icp:(Mono.now () -. t1)
    done
  with
  | () ->
    close obs fz ~full ~entries:(s.State.qhead - q0) ~in_bcp:!in_bcp;
    None
  | exception State.Conflict c ->
    close obs fz ~full ~entries:(s.State.qhead - q0) ~in_bcp:!in_bcp;
    Some c
  | exception e ->
    close obs fz ~full ~entries:(s.State.qhead - q0) ~in_bcp:!in_bcp;
    raise e
