type stats = {
  mutable subsumed : int;
  mutable strengthened : int;
}

(* A clause is read out of the arena ([State.read_clause]) as its
   atoms' codes and bounds.  Every atom is a half-interval bound on
   [code lsr 2]: a lower bound when bit 0 is clear (Pos v is v >= 1,
   Ge), an upper bound when set (Neg v is v <= 0, Le); Booleans are the
   one-bit special case, cf. State.entailed. *)
type atoms = {
  mutable codes : int array;
  mutable bounds : int array;
  mutable len : int;
}

(* clause [ci] into [c], whose arrays grow to fit and are kept *)
let load s c ci =
  let n = State.clause_len s ci in
  if n > Array.length c.codes then begin
    c.codes <- Array.make (2 * n) 0;
    c.bounds <- Array.make (2 * n) 0
  end;
  c.len <- n;
  State.read_clause s ci c.codes c.bounds

(* (c, k) ⇒ (d, l): one variable and side, the first interval included
   in the second *)
let imp c k d l = (c lxor d) land lnot 2 = 0 && if c land 1 = 0 then k >= l else k <= l

(* (c, k) ∧ (d, l) unsatisfiable: opposite bounds on one variable that
   cross *)
let incompatible c k d l =
  (c lxor d) land lnot 2 = 1 && if c land 1 = 0 then k > l else l > k

(* some atom of [d] at an index >= [j], other than [skip], is implied
   by (c, k) *)
let rec implied_in c k d ~skip j =
  j < d.len
  && ((j <> skip && imp c k d.codes.(j) d.bounds.(j)) || implied_in c k d ~skip (j + 1))

(* C subsumes D: every atom of C (from index [i] on) implies some atom
   of D, so C ⊨ D *)
let rec subsumes c d i =
  i >= c.len
  || (implied_in c.codes.(i) c.bounds.(i) d ~skip:(-1) 0 && subsumes c d (i + 1))

(* every atom of C (from index [i] on) either clashes with d.(k) or
   implies into D \ {d.(k)} *)
let rec strengthens c d k i =
  i >= c.len
  || ((incompatible c.codes.(i) c.bounds.(i) d.codes.(k) d.bounds.(k)
       || implied_in c.codes.(i) c.bounds.(i) d ~skip:k 0)
      && strengthens c d k (i + 1))

(* self-subsuming strengthening: the first index at or after [k] whose
   atom clashes with (x, kx) and that C strengthens away (C ∧ D then
   entails D without that atom), or -1 *)
let rec strengthen_at x kx c d k =
  if k >= d.len then -1
  else if incompatible x kx d.codes.(k) d.bounds.(k) && strengthens c d k 0 then k
  else strengthen_at x kx c d (k + 1)

(* an atom's state under the bounds: entailed, falsified *)
let entailed lb ub c k = if c land 1 = 0 then lb.(c lsr 2) >= k else ub.(c lsr 2) <= k
let falsified lb ub c k = if c land 1 = 0 then ub.(c lsr 2) < k else lb.(c lsr 2) > k

(* cost cap: only short clauses act as subsumers/strengtheners, the
   standard occurrence-list trade-off *)
let max_subsumer_len = 10

(* the candidate variable of C with the fewest clause occurrences *)
let best_var s c =
  let o = s.State.clause_occs in
  let best = ref (c.codes.(0) lsr 2) in
  for i = 0 to c.len - 1 do
    let v = c.codes.(i) lsr 2 in
    if State.occs_count o v < State.occs_count o !best then best := v
  done;
  !best

(* per-clause pass flags, one byte each *)
let dead = 1 (* deleted in this pass *)
let dirty = 2 (* outside the clean prefix, or changed in this pass *)

(* to be processed as C in this or the next round: every clause at
   first, then only one that changed or strengthened something since
   it was last processed — otherwise its tests would all fail again *)
let pending = 4

let has f ci bit = Char.code (Bytes.unsafe_get f ci) land bit <> 0

let add f ci bit =
  Bytes.unsafe_set f ci (Char.unsafe_chr (Char.code (Bytes.unsafe_get f ci) lor bit))

let remove f ci bit =
  Bytes.unsafe_set f ci
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get f ci) land lnot bit))

(* [di] may pair with clause [ci]: alive and non-root *)
let candidate s flags ~ci di =
  di <> ci && (not (has flags di dead)) && not (State.is_root_clause s di)

(* scratch of at least [n] bytes, the first [n] set to [c]; reallocated
   only to grow *)
let scratch b n c =
  let b = if Bytes.length b >= n then b else Bytes.create (max n (2 * Bytes.length b)) in
  Bytes.fill b 0 n c;
  b

(* 1. root-bound cleaning of non-root clause [ci], read into [d]: a
   clause with an entailed atom is permanently satisfied, a falsified
   atom can never help.  Never shrink to the empty clause — a fully
   falsified clause (possible only mid-suspension) is left for
   propagation to turn into the root conflict.  A surviving clause
   outside the clean prefix marks its variables. *)
let clean_clause s st flags mark ~clean d ci =
  let lb = s.State.lb and ub = s.State.ub in
  load s d ci;
  let sat = ref false and nf = ref 0 in
  for j = 0 to d.len - 1 do
    if entailed lb ub d.codes.(j) d.bounds.(j) then sat := true
    else if falsified lb ub d.codes.(j) d.bounds.(j) then incr nf
  done;
  if !sat then begin
    add flags ci dead;
    st.subsumed <- st.subsumed + 1
  end
  else begin
    if !nf > 0 && !nf < d.len then begin
      State.drop_atoms s ci (fun j -> falsified lb ub d.codes.(j) d.bounds.(j));
      st.strengthened <- st.strengthened + !nf;
      add flags ci dirty;
      load s d ci
    end;
    if ci >= clean then
      for j = 0 to d.len - 1 do
        Bytes.unsafe_set mark (d.codes.(j) lsr 2) '\001'
      done
  end

(* Which tests can fire (see hsimp.mli): a test of C against D needs
   C dirty or D new ([di >= clean]).  Occurrence lists ascend by
   clause index, so a clean C reads only their new tails; and a clean
   C with a variable that no new non-root clause mentions is skipped
   outright. *)
let run s =
  if State.decision_level s <> 0 then invalid_arg "Hsimp.run: decision level";
  let st = { subsumed = 0; strengthened = 0 } in
  let n = s.State.n_clauses in
  let clean = s.State.n_clean in
  s.State.hs_flags <- scratch s.State.hs_flags n (Char.chr pending);
  s.State.hs_mark <- scratch s.State.hs_mark s.State.nv '\000';
  let flags = s.State.hs_flags and mark = s.State.hs_mark in
  Bytes.fill flags clean (n - clean) (Char.chr (pending lor dirty));
  (* C and D, read out of the arena into arrays the pass reuses *)
  let fresh () = { codes = [||]; bounds = [||]; len = 0 } in
  let c = fresh () and d = fresh () in
  for ci = 0 to n - 1 do
    if not (State.is_root_clause s ci) then clean_clause s st flags mark ~clean d ci
  done;
  (* 2. subsumption + self-subsuming strengthening to (bounded)
     fixpoint.  Candidates come through the occurrence lists of the
     rarest variable; occurrence entries can be stale after an
     in-place strengthening, so membership is re-checked by [imp] /
     [incompatible] on the current clause content. *)
  let o = s.State.clause_occs in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 3 do
    changed := false;
    incr rounds;
    for ci = 0 to n - 1 do
      if has flags ci pending && not (has flags ci dead) then begin
        remove flags ci pending;
        let len = State.clause_len s ci in
        let c_dirty = has flags ci dirty in
        if len > 0 && len <= max_subsumer_len
           && (c_dirty || State.vars_marked s ci mark)
        then begin
          load s c ci;
          let first = if c_dirty then 0 else clean in
          (* backward subsumption: kill non-root clauses implied by c *)
          let v = best_var s c in
          let occ = o.State.occ.(v) in
          let j = ref (o.State.n_occ.(v) - 1) in
          while !j >= 0 && occ.(!j) >= first do
            let di = occ.(!j) in
            if candidate s flags ~ci di then begin
              load s d di;
              if subsumes c d 0 then begin
                add flags di dead;
                st.subsumed <- st.subsumed + 1;
                changed := true
              end
            end;
            decr j
          done;
          (* self-subsuming strengthening: for an atom x of c, drop
             from a clause d the first atom incompatible with x such
             that every atom of c either clashes with it or implies
             into the rest of d *)
          for i = 0 to len - 1 do
            let x = c.codes.(i) and kx = c.bounds.(i) in
            let v = x lsr 2 in
            let occ = o.State.occ.(v) in
            let j = ref (o.State.n_occ.(v) - 1) in
            while !j >= 0 && occ.(!j) >= first do
              let di = occ.(!j) in
              if candidate s flags ~ci di && State.clause_len s di > 1 then begin
                load s d di;
                let k = strengthen_at x kx c d 0 in
                if k >= 0 then begin
                  State.drop_atoms s di (fun j -> j = k);
                  st.strengthened <- st.strengthened + 1;
                  changed := true;
                  add flags di (dirty lor pending);
                  add flags ci pending
                end
              end;
              decr j
            done
          done
        end
      end
    done
  done;
  (* 3. compact in place, preserving every root clause *)
  if st.subsumed > 0 || st.strengthened > 0 then
    State.compact_clauses s ~keep:(fun ci -> not (has flags ci dead));
  (* a fixpoint leaves every surviving pair tested and negative; a
     pass cut off by the round cap with changes pending proves
     nothing *)
  s.State.n_clean <- (if !changed then 0 else s.State.n_clauses);
  st
