module Obs = Rtlsat_obs.Obs
module Forensics = Rtlsat_obs.Forensics
module Mono = Rtlsat_obs.Mono
module Heap = Rtlsat_sat.Heap

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv a b = -(fdiv (-a) b)

(* ---- clauses ---- *)

(* One pass over a clause's atoms in the arena (State.cl_arena), the
   [j]th of [n] at index [i]: [-2] when an atom is entailed or a second
   atom is open (satisfied or undetermined: no-op either way), [-1] when
   every atom is false, else the ordinal of the one open atom.  [unit]
   carries the open atom found so far. *)
let rec scan a lb ub n i j unit =
  if j = n then unit
  else begin
    let code = a.(i) in
    let v = code lsr 2 in
    (* a [Pos]/[Neg] atom's bound is implied: 1 / 0 *)
    let k, next =
      if code land 2 = 0 then (1 - (code land 1), i + 1) else (a.(i + 1), i + 2)
    in
    (* bit 0 of the code is the side: entailed, falsified, or open *)
    if code land 1 = 0 then
      if lb.(v) >= k then -2
      else if ub.(v) < k then scan a lb ub n next (j + 1) unit
      else if unit >= 0 then -2
      else scan a lb ub n next (j + 1) j
    else if ub.(v) <= k then -2
    else if lb.(v) > k then scan a lb ub n next (j + 1) unit
    else if unit >= 0 then -2
    else scan a lb ub n next (j + 1) j
  end

(* clause [ci] of the arena [a] with slots [starts], under [lb]/[ub] *)
let check s a starts lb ub ci =
  let p = starts.(ci) in
  let u = scan a lb ub (a.(p) lsr 1) (p + 1) 0 (-1) in
  if u = -1 then State.clause_conflict s ci
  else if u >= 0 then State.assert_unit s ci u

let check_clause s ci = check s s.State.cl_arena s.State.cl_start s.State.lb s.State.ub ci

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

(* A linear constraint is its flat terms [lo, hi) in [State.lin_coef]
   and [State.lin_var], read through [neg]: the coefficients negated
   when set (the [lin_neg] of an equality's second half or a false
   predicate), with the caller passing the matching constant. *)

(* acc + Σ c·(lb.(v) if c > 0 else ub.(v)) over the terms, skipping
   variable [skip], each partial sum checked in term order.  Swapping
   [lb] and [ub] gives the maximum. *)
let min_sum s lb ub neg skip acc lo hi =
  let cs = s.State.lin_coef and vs = s.State.lin_var in
  let acc = ref acc in
  for i = lo to hi - 1 do
    let v = vs.(i) in
    if v <> skip then begin
      let c = if neg then -cs.(i) else cs.(i) in
      acc := add !acc (mul c (if c > 0 then lb.(v) else ub.(v)))
    end
  done;
  !acc

(* Explanations: the bound atom each term's extreme value rests on —
   its lower bound for a minimum when c > 0, flipped by [maxi] —
   keeping only atoms tighter than the initial domain (conflict
   analysis would drop the others, but small explanations are cheap
   here).  Written to the reason arena, the terms but [skip] in order
   and then the predicate literal xb / ¬xb ([xpos]) when [xb >= 0]. *)
let expl s ~neg ~maxi ~skip ~xb ~xpos lo hi =
  let cs = s.State.lin_coef and vs = s.State.lin_var in
  let lb = s.State.lb and ub = s.State.ub in
  for i = lo to hi - 1 do
    let v = vs.(i) in
    if v <> skip then begin
      let c = if neg then -cs.(i) else cs.(i) in
      if (c > 0) <> maxi then begin
        if lb.(v) > s.State.init_lb.(v) then State.reason_push_lo s v lb.(v)
      end
      else if ub.(v) < s.State.init_ub.(v) then State.reason_push_hi s v ub.(v)
    end
  done;
  if xb >= 0 then State.reason_push_lit s xb xpos

(* tighten every term of Σ cᵢvᵢ + k ≤ 0 against the residual minimum of
   the others: m - cᵢ·(bound) from the full minimum [m] when it was
   computable, else the minimum re-summed without vᵢ *)
let tighten s neg k xb xpos m m_ok lo hi =
  let cs = s.State.lin_coef and vs = s.State.lin_var in
  let lb = s.State.lb and ub = s.State.ub in
  for i = lo to hi - 1 do
    let v = vs.(i) in
    let c = if neg then -cs.(i) else cs.(i) in
    let r =
      try
        if m_ok then sub m (mul c (if c > 0 then lb.(v) else ub.(v)))
        else min_sum s lb ub neg v k lo hi
      with Overflow -> min_int
    in
    (* min_int: overflowed, or a residual whose negation would *)
    if r <> min_int then begin
      if c > 0 then begin
        (* c·v ≤ -r *)
        let ub' = fdiv (-r) c in
        if ub' < ub.(v) then begin
          let mark = s.State.rs_len in
          expl s ~neg ~maxi:false ~skip:v ~xb ~xpos lo hi;
          State.assert_hi_canon s v ub' mark
        end
      end
      else begin
        (* (-c)·v ≥ r, -c > 0 *)
        let lb' = cdiv r (-c) in
        if lb' > lb.(v) then begin
          let mark = s.State.rs_len in
          expl s ~neg ~maxi:false ~skip:v ~xb ~xpos lo hi;
          State.assert_lo_canon s v lb' mark
        end
      end
    end
  done

(* propagate Σ cᵢvᵢ + k ≤ 0 over the terms [lo, hi) read through [neg].
   The walk that sums the minimum m also keeps the widest span
   |cᵢ|·(ub - lb) of a term.  A term tightens only when its span
   exceeds the slack -m (for c > 0, ub' = lb + ⌊-m/c⌋ < ub; for c < 0,
   lb' = ub + ⌈m/|c|⌉ > lb), so when every span fits the slack the
   tighten walk would assert nothing and is skipped.  A span that is
   not a small product (a factor of 2^30 or more, or zero) makes the
   tighten walk run. *)
let propagate_le s ~neg ~k ~xb ~xpos lo hi =
  let cs = s.State.lin_coef and vs = s.State.lin_var in
  let lb = s.State.lb and ub = s.State.ub in
  let m = ref k and span = ref 0 in
  match
    for i = lo to hi - 1 do
      let v = vs.(i) in
      let c = if neg then -cs.(i) else cs.(i) in
      m := add !m (mul c (if c > 0 then lb.(v) else ub.(v)));
      let a = abs c and w = ub.(v) - lb.(v) in
      if a <= 0 || a >= small || w < 0 || w >= small then span := max_int
      else if a * w > !span then span := a * w
    done
  with
  | () ->
    let m = !m in
    if m > 0 then begin
      let mark = s.State.rs_len in
      expl s ~neg ~maxi:false ~skip:(-1) ~xb ~xpos lo hi;
      raise (State.Conflict (State.take_reason s mark))
    end;
    if !span > -m then tighten s neg k xb xpos m true lo hi
  | exception Overflow -> tighten s neg k xb xpos 0 false lo hi

(* whether the minimum (maximum when [lb]/[ub] are swapped) of the
   terms [lo, hi) plus [const] is computable and satisfies [pos] (> 0)
   or not [pos] (<= 0) *)
let extreme_is s lb ub const lo hi ~pos =
  match min_sum s lb ub false (-1) const lo hi with
  | x -> if pos then x > 0 else x <= 0
  | exception Overflow -> false

(* ---- word multiplexers ---- *)

(* z = x under the selector literal: each direction's bound moves
   from [y] to [w], explained by the selector and [y]'s bound when it
   is tighter than the initial domain *)
let sel_move s sel pos lo y w =
  let mark = s.State.rs_len in
  State.reason_push_lit s sel pos;
  if lo then begin
    if s.State.lb.(y) > s.State.init_lb.(y) then State.reason_push_lo s y s.State.lb.(y);
    State.assert_lo_canon s w s.State.lb.(y) mark
  end
  else begin
    if s.State.ub.(y) < s.State.init_ub.(y) then State.reason_push_hi s y s.State.ub.(y);
    State.assert_hi_canon s w s.State.ub.(y) mark
  end

let mux_equal s sel pos x z =
  let lb = s.State.lb and ub = s.State.ub in
  if lb.(x) > lb.(z) then sel_move s sel pos true x z;
  if ub.(x) < ub.(z) then sel_move s sel pos false x z;
  if lb.(z) > lb.(x) then sel_move s sel pos true z x;
  if ub.(z) < ub.(x) then sel_move s sel pos false z x

(* selector implication from disjointness: z outside x's domain
   refutes the arm z = x, asserting [sel] when [pos] and ¬sel
   otherwise *)
let refute s sel pos mark =
  if pos then State.assert_lo s sel 1 mark else State.assert_hi s sel 0 mark

let mux_disjoint s x z sel pos =
  let lb = s.State.lb and ub = s.State.ub in
  let mark = s.State.rs_len in
  if lb.(z) > ub.(x) then begin
    State.reason_push_lo s z (ub.(x) + 1);
    State.reason_push_hi s x ub.(x);
    refute s sel pos mark
  end
  else if ub.(z) < lb.(x) then begin
    State.reason_push_hi s z (lb.(x) - 1);
    State.reason_push_lo s x lb.(x);
    refute s sel pos mark
  end

let mux_open s sel t e z =
  let lb = s.State.lb and ub = s.State.ub in
  (* hull narrowing of z *)
  let klo = if lb.(t) <= lb.(e) then lb.(t) else lb.(e) in
  if klo > lb.(z) then begin
    let mark = s.State.rs_len in
    State.reason_push_lo s t klo;
    State.reason_push_lo s e klo;
    State.assert_lo_canon s z klo mark
  end;
  let khi = if ub.(t) >= ub.(e) then ub.(t) else ub.(e) in
  if khi < ub.(z) then begin
    let mark = s.State.rs_len in
    State.reason_push_hi s t khi;
    State.reason_push_hi s e khi;
    State.assert_hi_canon s z khi mark
  end;
  mux_disjoint s t z sel false;
  mux_disjoint s e z sel true

(* dispatch on the constraint tables (State.cn_head): the kind in the
   low two bits, a predicate's or multiplexer's Boolean above them,
   whose value is read off its bounds *)
let propagate_constr s ci =
  let lo = s.State.lin_off.(ci) and hi = s.State.lin_off.(ci + 1) in
  let h = s.State.cn_head.(ci) in
  let lb = s.State.lb and ub = s.State.ub in
  match h land 3 with
  | 0 -> propagate_le s ~neg:false ~k:s.State.cn_const.(ci) ~xb:(-1) ~xpos:false lo hi
  | 1 ->
    let k = s.State.cn_const.(ci) in
    propagate_le s ~neg:false ~k ~xb:(-1) ~xpos:false lo hi;
    propagate_le s ~neg:true ~k:(-k) ~xb:(-1) ~xpos:false lo hi
  | 2 ->
    let b = h lsr 2 and k = s.State.cn_const.(ci) in
    if lb.(b) >= 1 then propagate_le s ~neg:false ~k ~xb:b ~xpos:true lo hi
    else if ub.(b) <= 0 then
      (* ¬(e ≤ 0) over integers is -e + 1 ≤ 0 *)
      propagate_le s ~neg:true ~k:(-k + 1) ~xb:b ~xpos:false lo hi
    else if extreme_is s ub lb k lo hi ~pos:false then begin
      let mark = s.State.rs_len in
      expl s ~neg:false ~maxi:true ~skip:(-1) ~xb:(-1) ~xpos:false lo hi;
      State.assert_lo s b 1 mark
    end
    else if extreme_is s lb ub k lo hi ~pos:true then begin
      let mark = s.State.rs_len in
      expl s ~neg:false ~maxi:false ~skip:(-1) ~xb:(-1) ~xpos:false lo hi;
      State.assert_hi s b 0 mark
    end
  | _ ->
    (* a multiplexer's slots are its words t, e, z *)
    let sel = h lsr 2 and vs = s.State.lin_var in
    let t = vs.(lo) and e = vs.(lo + 1) and z = vs.(lo + 2) in
    if lb.(sel) >= 1 then mux_equal s sel true t z
    else if ub.(sel) <= 0 then mux_equal s sel false e z
    else mux_open s sel t e z

exception Propagation_timeout

(* One wakeup of [ci] under forensics: counted and made the narrowing
   target, and timed when its countdown runs out (see [Forensics.t]).
   The counting is written here, not called, since it runs on every
   wakeup.  A constraint appended after the table was sized is
   propagated uncounted. *)
let[@inline] wake s (f : Forensics.t) ci =
  let w = f.Forensics.c_wakeups in
  if ci < Array.length w then begin
    w.(ci) <- w.(ci) + 1;
    f.Forensics.cur <- ci;
    let due = f.Forensics.c_due in
    let d = due.(ci) - 1 in
    if d > 0 then begin
      due.(ci) <- d;
      propagate_constr s ci
    end
    else begin
      let start = Forensics.sample_start f ci in
      propagate_constr s ci;
      Forensics.sample_stop f ci start
    end
  end
  else begin
    f.Forensics.cur <- -1;
    propagate_constr s ci
  end

(* close the run's span, counting one BCP entry per trail entry (and
   the full scan) and one ICP entry per BCP entry that got past its
   clauses: all but the last when the run ended in clauses ([in_bcp]) *)
let close obs fz ~full ~entries ~in_bcp =
  (match fz with Some f -> f.Forensics.cur <- -1 | None -> ());
  if obs.Obs.enabled then begin
    let bcp_calls = if full then entries + 1 else entries in
    Obs.prop_exit obs ~bcp_calls
      ~icp_calls:(if in_bcp then bcp_calls - 1 else bcp_calls)
  end

(* One loop serves both observed and unobserved runs.  With obs
   enabled the run is one span (two clock reads); one trail entry in
   [Obs.prop_sample_period] is timed on its clause and constraint halves
   (three reads), and the span's time is split between BCP and ICP by
   the sampled ratio at the exit.  With forensics attached, one wakeup
   in [Forensics.sample_period] of each constraint is timed (two
   reads, in [Forensics.sample_start]/[sample_stop]). *)
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
      for ci = 0 to s.State.n_clauses - 1 do
        check_clause s ci
      done;
      in_bcp := false;
      match fz with
      | None ->
        for ci = 0 to Array.length s.State.cn_head - 1 do
          propagate_constr s ci
        done
      | Some f ->
        for ci = 0 to Array.length s.State.cn_head - 1 do
          wake s f ci
        done;
        f.Forensics.cur <- -1
    end;
    (* a split candidate suspends the fixpoint: the solver takes the
       bisection decision first (the queued consequences stay on the
       trail and we resume from qhead afterwards).  With splits off the
       heap is never populated and the loop runs to fixpoint as
       before. *)
    while
      s.State.qhead < s.State.tr_len
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
        if Rtlsat_sat.Search.expired ~deadline cancel then
          raise Propagation_timeout
      end;
      let v = s.State.tr_lit.(s.State.qhead) lsr 1 in
      s.State.qhead <- s.State.qhead + 1;
      s.State.n_propagations <- s.State.n_propagations + 1;
      let sampled =
        on
        &&
        let n = obs.Obs.prop_entries in
        obs.Obs.prop_entries <- n + 1;
        n land (Obs.prop_sample_period - 1) = 0
      in
      let t0 = if sampled then Mono.now () else 0.0 in
      in_bcp := true;
      (* both visit orders are newest occurrence first *)
      let o = s.State.clause_occs in
      let occ = o.State.occ.(v) in
      let a = s.State.cl_arena and starts = s.State.cl_start in
      let lb = s.State.lb and ub = s.State.ub in
      for j = o.State.n_occ.(v) - 1 downto 0 do
        check s a starts lb ub occ.(j)
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
         done;
         f.Forensics.cur <- -1);
      if sampled then begin
        let ps = obs.Obs.prop_sampled in
        ps.(0) <- ps.(0) +. (t1 -. t0);
        ps.(1) <- ps.(1) +. (Mono.now () -. t1)
      end
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
