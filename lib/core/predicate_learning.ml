open Rtlsat_constr.Types
module Ir = Rtlsat_rtl.Ir
module Structure = Rtlsat_rtl.Structure
module Encode = Rtlsat_constr.Encode
module Problem = Rtlsat_constr.Problem
module Obs = Rtlsat_obs.Obs

type summary = {
  relations : int;
  probes : int;
  learn_time : float;
  root_unsat : bool;
  pos_score : int array;
  neg_score : int array;
}

(* the ways of satisfying a controlling output value: a disjunctive
   cover — every solution satisfying (gate = value) satisfies at least
   one way — so implications common to all ways are implied by the
   value itself (recursive learning, §2.3) *)
let ways_of enc n value =
  let v m = enc.Encode.var_of.(m.Ir.id) in
  match (n.Ir.op, value) with
  | Ir.And ns, false -> Some (Array.to_list (Array.map (fun m -> [ Neg (v m) ]) ns))
  | Ir.Or ns, true -> Some (Array.to_list (Array.map (fun m -> [ Pos (v m) ]) ns))
  | Ir.Xor (a, b), true -> Some [ [ Pos (v a); Neg (v b) ]; [ Neg (v a); Pos (v b) ] ]
  | Ir.Xor (a, b), false -> Some [ [ Pos (v a); Pos (v b) ]; [ Neg (v a); Neg (v b) ] ]
  | Ir.Cmp _, value ->
    (* theory predicate: a single "way" — assert it and let interval
       constraint propagation carry implications across the data-path *)
    Some [ [ (if value then Pos (v n) else Neg (v n)) ] ]
  | _ -> None

(* Boolean atoms pushed on the trail above position [from] *)
let bool_atoms_above s from =
  let out = ref [] in
  for i = from to State.trail_length s - 1 do
    (* a Boolean's entry atom is its [Pos]/[Neg] literal *)
    if Problem.is_bool_var s.State.prob (State.trail_var s i) then
      out := State.trail_atom s i :: !out
  done;
  !out

let intersect_lists lists =
  match lists with
  | [] -> []
  | first :: rest ->
    List.filter (fun a -> List.for_all (fun l -> List.mem a l) rest) first

let run ?threshold ?(depth = 1) ?(deadline = infinity) s (enc : Encode.t) =
  assert (State.decision_level s = 0);
  let t0 = Rtlsat_obs.Mono.now () in
  let candidates = Structure.candidate_gates enc.Encode.circuit in
  let threshold =
    match threshold with Some t -> t | None -> min (List.length candidates) 2000
  in
  let relations = ref 0 in
  let probes = ref 0 in
  let root_unsat = ref false in
  let pos_score = Array.make s.State.nv 0 in
  let neg_score = Array.make s.State.nv 0 in
  let known : (atom * atom, unit) Hashtbl.t = Hashtbl.create 64 in
  let out_of_budget () =
    !relations >= threshold || Rtlsat_obs.Mono.now () > deadline || !root_unsat
  in
  (* probe a conjunction of atoms: propagate it in isolation and
     return the Boolean implications, recursing on nested gates when
     depth allows; None when the assumption is infeasible *)
  let rec probe_way atoms d =
    let base = State.trail_length s in
    let level = State.decision_level s in
    State.new_level s;
    incr probes;
    let outcome =
      try
        List.iter (fun a -> State.assert_atom s a None) atoms;
        match Propagate.run ~deadline s with
        | exception Propagate.Propagation_timeout ->
          (* out of time: no implication learned from this probe; the
             budget check stops the sweep on the next iteration *)
          None
        | Some _ -> None
        | None ->
          let implied = ref (bool_atoms_above s base) in
          if d > 1 then begin
            (* recurse: strengthen with common implications of nested
               unjustified candidate gates (bounded fan-out per level) *)
            let expanded = ref 0 in
            List.iter
              (fun n ->
                 if !expanded < 4 && not (out_of_budget ()) then begin
                   let zv = enc.Encode.var_of.(n.Ir.id) in
                   let bv = State.bool_value s zv in
                   if bv <> -1 then begin
                     match ways_of enc n (bv = 1) with
                     | Some ways when List.length ways > 1 ->
                       incr expanded;
                       (* infeasible ways admit no solutions, so the
                          intersection over the feasible ones is still
                          implied *)
                       let sub = List.filter_map (fun w -> probe_way w (d - 1)) ways in
                       if sub <> [] then implied := intersect_lists sub @ !implied
                     | _ -> ()
                   end
                 end)
              candidates
          end;
          Some !implied
      with State.Conflict _ -> None
    in
    State.backtrack_to s level;
    outcome
  in
  let learn_clause trigger a =
    (* trigger -> a, stored as the clause (¬trigger ∨ a) *)
    let cl = (negate_atom trigger, a) in
    if not (Hashtbl.mem known cl) && atom_var a <> atom_var trigger then begin
      Hashtbl.replace known cl ();
      State.add_clause s [| fst cl; snd cl |];
      s.State.n_learned <- s.State.n_learned + 1;
      incr relations;
      Obs.static_learn s.State.obs ~len:2 ~trigger_var:(atom_var trigger);
      List.iter
        (fun at ->
           State.bump_var s (atom_var at);
           match at with
           | Pos v -> pos_score.(v) <- pos_score.(v) + 1
           | Neg v -> neg_score.(v) <- neg_score.(v) + 1
           | Ge _ | Le _ -> ())
        [ fst cl; snd cl ]
    end
  in
  let probe_gate n =
    let zv = enc.Encode.var_of.(n.Ir.id) in
    let values =
      match n.Ir.op with
      | Ir.And _ -> [ false ]
      | Ir.Or _ -> [ true ]
      | Ir.Xor _ | Ir.Cmp _ -> [ true; false ]
      | _ -> []
    in
    List.iter
      (fun value ->
         if (not (out_of_budget ())) && State.bool_value s zv = -1 then begin
           let trigger = if value then Pos zv else Neg zv in
           match ways_of enc n value with
           | None -> ()
           | Some ways ->
             let results = List.map (fun w -> probe_way w depth) ways in
             let feasible = List.filter_map (fun r -> r) results in
             if feasible = [] then begin
               (* no way satisfies the value: it is refuted at the root *)
               match
                 State.assert_atom s (negate_atom trigger) None;
                 Propagate.run ~deadline s
               with
               | Some _ -> root_unsat := true
               | None -> ()
               | exception State.Conflict _ -> root_unsat := true
               | exception Propagate.Propagation_timeout -> ()
             end
             else begin
               (* infeasible ways admit no solutions at all, so the
                  common implications of the feasible ways suffice *)
               let common = intersect_lists feasible in
               List.iter
                 (fun a -> if not (out_of_budget ()) then learn_clause trigger a)
                 common
             end
         end)
      values
  in
  List.iter (fun n -> if not (out_of_budget ()) then probe_gate n) candidates;
  {
    relations = !relations;
    probes = !probes;
    learn_time = Rtlsat_obs.Mono.now () -. t0;
    root_unsat = !root_unsat;
    pos_score;
    neg_score;
  }
