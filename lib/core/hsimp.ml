open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec

type stats = {
  mutable subsumed : int;
  mutable strengthened : int;
}

(* every atom is a half-interval bound: a lower bound (Pos v is
   v >= 1, Ge) or an upper bound (Neg v is v <= 0, Le); Booleans are
   the one-bit special case, cf. State.entailed.  The checks match on
   the constructors directly so that no pair test allocates. *)
let bound = function Pos _ -> 1 | Neg _ -> 0 | Ge (_, k) | Le (_, k) -> k

(* a ⇒ b: the interval of [a] is included in the interval of [b] *)
let imp a b =
  match (a, b) with
  | (Pos v | Ge (v, _)), (Pos w | Ge (w, _)) -> v = w && bound a >= bound b
  | (Neg v | Le (v, _)), (Neg w | Le (w, _)) -> v = w && bound a <= bound b
  | _ -> false

(* a ∧ b unsatisfiable: opposite bounds on one variable that cross *)
let incompatible a b =
  match (a, b) with
  | (Pos v | Ge (v, _)), (Neg w | Le (w, _)) -> v = w && bound a > bound b
  | (Neg v | Le (v, _)), (Pos w | Ge (w, _)) -> v = w && bound b > bound a
  | _ -> false

(* some atom of [d] at an index >= [j], other than [skip], is implied
   by [a] *)
let rec implied_in a d ~skip j =
  j < Array.length d
  && ((j <> skip && imp a d.(j)) || implied_in a d ~skip (j + 1))

(* C subsumes D: every atom of C (from index [i] on) implies some atom
   of D, so C ⊨ D *)
let rec subsumes c d i =
  i >= Array.length c || (implied_in c.(i) d ~skip:(-1) 0 && subsumes c d (i + 1))

(* every atom of C (from index [i] on) either clashes with d.(k) or
   implies into D \ {d.(k)} *)
let rec strengthens c d k i =
  i >= Array.length c
  || ((incompatible c.(i) d.(k) || implied_in c.(i) d ~skip:k 0)
      && strengthens c d k (i + 1))

(* self-subsuming strengthening: the first index at or after [k] whose
   atom clashes with [a] and that C strengthens away (C ∧ D then
   entails D without that atom), or -1 *)
let rec strengthen_at a c d k =
  if k >= Array.length d then -1
  else if incompatible a d.(k) && strengthens c d k 0 then k
  else strengthen_at a c d (k + 1)

let rec any_entailed s cl i =
  i < Array.length cl && (State.entailed s cl.(i) || any_entailed s cl (i + 1))

let count_falsified s cl =
  let nf = ref 0 in
  for i = 0 to Array.length cl - 1 do
    if State.falsified s cl.(i) then incr nf
  done;
  !nf

(* cost cap: only short clauses act as subsumers/strengtheners, the
   standard occurrence-list trade-off *)
let max_subsumer_len = 10

(* the candidate variable of [c] with the fewest clause occurrences *)
let best_var s c =
  let o = s.State.clause_occs in
  let best = ref (atom_var c.(0)) in
  for i = 0 to Array.length c - 1 do
    let v = atom_var c.(i) in
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

let rec all_marked mark c i =
  i >= Array.length c
  || (Bytes.unsafe_get mark (atom_var c.(i)) <> '\000' && all_marked mark c (i + 1))

(* [di] may pair with clause [ci]: alive and non-root *)
let candidate s flags ~ci di =
  di <> ci && (not (has flags di dead)) && not (State.is_root_clause s di)

(* scratch of at least [n] bytes, the first [n] set to [c]; reallocated
   only to grow *)
let scratch b n c =
  let b = if Bytes.length b >= n then b else Bytes.create (max n (2 * Bytes.length b)) in
  Bytes.fill b 0 n c;
  b

(* Which tests can fire (see hsimp.mli): a test of C against D needs
   C dirty or D new ([di >= clean]).  Occurrence lists ascend by
   clause index, so a clean C reads only their new tails; and a clean
   C with a variable that no new non-root clause mentions is skipped
   outright. *)
let run s =
  if State.decision_level s <> 0 then invalid_arg "Hsimp.run: decision level";
  let st = { subsumed = 0; strengthened = 0 } in
  let clauses = s.State.clauses in
  let n = Vec.length clauses in
  let clean = s.State.n_clean in
  s.State.hs_flags <- scratch s.State.hs_flags n (Char.chr pending);
  s.State.hs_mark <- scratch s.State.hs_mark s.State.nv '\000';
  let flags = s.State.hs_flags and mark = s.State.hs_mark in
  Bytes.fill flags clean (n - clean) (Char.chr (pending lor dirty));
  (* 1. root-bound cleaning of non-root clauses: a clause with an
     entailed atom is permanently satisfied, a falsified atom can
     never help.  Never shrink to the empty clause — a fully
     falsified clause (possible only mid-suspension) is left for
     propagation to turn into the root conflict. *)
  for ci = 0 to n - 1 do
    if not (State.is_root_clause s ci) then begin
      let cl = Vec.get clauses ci in
      if any_entailed s cl 0 then begin
        add flags ci dead;
        st.subsumed <- st.subsumed + 1
      end
      else begin
        let len = Array.length cl in
        let nf = count_falsified s cl in
        if nf > 0 && nf < len then begin
          let kept = Array.make (len - nf) cl.(0) in
          let j = ref 0 in
          for i = 0 to len - 1 do
            if not (State.falsified s cl.(i)) then begin
              kept.(!j) <- cl.(i);
              incr j
            end
          done;
          st.strengthened <- st.strengthened + nf;
          Vec.set clauses ci kept;
          add flags ci dirty
        end;
        if ci >= clean then begin
          let cl = Vec.get clauses ci in
          for i = 0 to Array.length cl - 1 do
            Bytes.unsafe_set mark (atom_var cl.(i)) '\001'
          done
        end
      end
    end
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
        let c = Vec.get clauses ci in
        let len = Array.length c in
        let c_dirty = has flags ci dirty in
        if len > 0 && len <= max_subsumer_len
           && (c_dirty || all_marked mark c 0)
        then begin
          let first = if c_dirty then 0 else clean in
          (* backward subsumption: kill non-root clauses implied by c *)
          let v = best_var s c in
          let occ = o.State.occ.(v) in
          let j = ref (o.State.n_occ.(v) - 1) in
          while !j >= 0 && occ.(!j) >= first do
            let di = occ.(!j) in
            if candidate s flags ~ci di && subsumes c (Vec.get clauses di) 0
            then begin
              add flags di dead;
              st.subsumed <- st.subsumed + 1;
              changed := true
            end;
            decr j
          done;
          (* self-subsuming strengthening: for an atom a of c, drop
             from a clause d the first atom b incompatible with a such
             that every atom of c either clashes with b or implies
             into d \ {b} *)
          for i = 0 to len - 1 do
            let a = c.(i) in
            let v = atom_var a in
            let occ = o.State.occ.(v) in
            let j = ref (o.State.n_occ.(v) - 1) in
            while !j >= 0 && occ.(!j) >= first do
              let di = occ.(!j) in
              if candidate s flags ~ci di then begin
                let d = Vec.get clauses di in
                let nd = Array.length d in
                if nd > 1 then begin
                  let k = strengthen_at a c d 0 in
                  if k >= 0 then begin
                    Vec.set clauses di
                      (Array.init (nd - 1) (fun j ->
                           if j < k then d.(j) else d.(j + 1)));
                    st.strengthened <- st.strengthened + 1;
                    changed := true;
                    add flags di (dirty lor pending);
                    add flags ci pending
                  end
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
  s.State.n_clean <- (if !changed then 0 else Vec.length clauses);
  st
