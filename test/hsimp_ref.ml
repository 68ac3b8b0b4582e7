(* Test-only reference: the hybrid simplifier as it was before the
   incremental, allocation-free rewrite, kept verbatim below this
   header for the differential suite in test_hsimp.ml. *)
module State = Rtlsat_core.State

open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec

type stats = {
  mutable subsumed : int;
  mutable strengthened : int;
}

(* every atom is a half-interval bound: (var, lower?, k) where
   [true, k] means v >= k and [false, k] means v <= k (Booleans are
   the one-bit special case, cf. State.bound_of) *)
let bound_of = function
  | Pos v -> (v, true, 1)
  | Neg v -> (v, false, 0)
  | Ge (v, k) -> (v, true, k)
  | Le (v, k) -> (v, false, k)

(* a ⇒ b: the interval of [a] is included in the interval of [b] *)
let imp a b =
  let va, la, ka = bound_of a and vb, lb, kb = bound_of b in
  va = vb && la = lb && (if la then ka >= kb else ka <= kb)

(* a ∧ b unsatisfiable: opposite bounds on one variable that cross *)
let incompatible a b =
  let va, la, ka = bound_of a and vb, lb, kb = bound_of b in
  va = vb && la <> lb && (if la then ka > kb else kb > ka)

(* C subsumes D: every atom of C implies some atom of D, so C ⊨ D *)
let subsumes c d =
  Array.for_all (fun a -> Array.exists (fun b -> imp a b) d) c

(* cost cap: only short clauses act as subsumers/strengtheners, the
   standard occurrence-list trade-off *)
let max_subsumer_len = 10

(* the candidate variable of [c] with the fewest clause occurrences *)
let best_var s c =
  let occ v = State.occs_count s.State.clause_occs v in
  let best = ref (atom_var c.(0)) in
  Array.iter
    (fun a ->
       let v = atom_var a in
       if occ v < occ !best then best := v)
    c;
  !best

let run s =
  if State.decision_level s <> 0 then invalid_arg "Hsimp.run: decision level";
  let st = { subsumed = 0; strengthened = 0 } in
  let n = Vec.length s.State.clauses in
  if n = 0 then st
  else begin
    let dead = Array.make n false in
    (* 1. root-bound cleaning of non-root clauses: a clause with an
       entailed atom is permanently satisfied, a falsified atom can
       never help.  Never shrink to the empty clause — a fully
       falsified clause (possible only mid-suspension) is left for
       propagation to turn into the root conflict. *)
    for ci = 0 to n - 1 do
      if not (State.is_root_clause s ci) then begin
        let cl = Vec.get s.State.clauses ci in
        if Array.exists (fun a -> State.entailed s a) cl then begin
          dead.(ci) <- true;
          st.subsumed <- st.subsumed + 1
        end
        else begin
          let kept =
            Array.to_list cl
            |> List.filter (fun a -> not (State.falsified s a))
            |> Array.of_list
          in
          if Array.length kept < Array.length cl && Array.length kept >= 1
          then begin
            st.strengthened <-
              st.strengthened + (Array.length cl - Array.length kept);
            Vec.set s.State.clauses ci kept
          end
        end
      end
    done;
    (* 2. subsumption + self-subsuming strengthening to (bounded)
       fixpoint.  Candidates come through the occurrence lists of the
       rarest variable; occurrence entries can be stale after an
       in-place strengthening, so membership is re-checked by [imp] /
       [incompatible] on the current clause content. *)
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 3 do
      changed := false;
      incr rounds;
      for ci = 0 to n - 1 do
        if not dead.(ci) then begin
          let c = Vec.get s.State.clauses ci in
          let len = Array.length c in
          if len > 0 && len <= max_subsumer_len then begin
            (* backward subsumption: kill non-root clauses implied by c *)
            State.occs_iter
              (fun di ->
                 if di < n && di <> ci && (not dead.(di))
                    && not (State.is_root_clause s di)
                 then begin
                   let d = Vec.get s.State.clauses di in
                   if subsumes c d then begin
                     dead.(di) <- true;
                     st.subsumed <- st.subsumed + 1;
                     changed := true
                   end
                 end)
              s.State.clause_occs (best_var s c);
            (* self-subsuming strengthening: for an atom a of c, find a
               clause d with an atom b incompatible with a such that
               every atom of c either clashes with b or implies into
               d \ {b}; then c ∧ d ⊨ d \ {b} and b can be dropped *)
            Array.iter
              (fun a ->
                 State.occs_iter
                   (fun di ->
                      if di < n && di <> ci && (not dead.(di))
                         && not (State.is_root_clause s di)
                      then begin
                        let d = Vec.get s.State.clauses di in
                        let nd = Array.length d in
                        if nd > 1 then begin
                          let ok_against b bi a' =
                            incompatible a' b
                            ||
                            (let found = ref false in
                             Array.iteri
                               (fun j b' ->
                                  if j <> bi && imp a' b' then found := true)
                               d;
                             !found)
                          in
                          let bi = ref 0 and hit = ref (-1) in
                          while !hit < 0 && !bi < nd do
                            let b = d.(!bi) in
                            if incompatible a b
                               && Array.for_all (ok_against b !bi) c
                            then hit := !bi;
                            incr bi
                          done;
                          if !hit >= 0 then begin
                            let k = !hit in
                            let d' =
                              Array.init (nd - 1) (fun j ->
                                  if j < k then d.(j) else d.(j + 1))
                            in
                            Vec.set s.State.clauses di d';
                            st.strengthened <- st.strengthened + 1;
                            changed := true
                          end
                        end
                      end)
                   s.State.clause_occs (atom_var a))
              c
          end
        end
      done
    done;
    (* 3. compact: rebuild the clause vector and occurrence lists
       without the dead clauses, preserving every root clause
       (mirrors State.reduce_clauses) *)
    if st.subsumed > 0 || st.strengthened > 0 then begin
      let kept = ref [] in
      for ci = n - 1 downto 0 do
        if not dead.(ci) then
          kept :=
            (Vec.get s.State.clauses ci, State.is_root_clause s ci) :: !kept
      done;
      Vec.clear s.State.clauses;
      Vec.clear s.State.root_flags;
      s.State.n_root_clauses <- 0;
      State.clear_clause_occs s;
      List.iter (fun (cl, root) -> State.add_clause s ~root cl) !kept
    end;
    st
  end
