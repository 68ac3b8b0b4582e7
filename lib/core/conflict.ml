open Rtlsat_constr.Types

type result = {
  clause : atom array;
  btlevel : int;
}

exception Root_conflict

(* ---- conflict forensics: DOT export of the hybrid implication graph
   (§2.4) reachable from one conflict.  Boolean literals render as
   ellipses, interval (bound) literals as boxes, decisions with a
   double border (interval-split decisions additionally tagged
   "[split]" in orange); the conflict sink is a red octagon labelled
   with the conflict kind ("conflict" / "jconflict" /
   "final_check"). ---- *)

let dot_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let dump_dot s ?(kind = "conflict") conflict fmt =
  let atom_label a =
    dot_escape (Format.asprintf "%a" (State.pp_atom s) a)
  in
  Format.fprintf fmt "digraph conflict {@.";
  Format.fprintf fmt "  rankdir=LR;@.";
  Format.fprintf fmt "  node [fontname=\"monospace\", fontsize=10];@.";
  Format.fprintf fmt
    "  conflict [label=\"%s\", shape=octagon, style=filled, \
     fillcolor=\"#e05050\", fontcolor=white];@."
    (dot_escape kind);
  (* one node per contributing trail entry; root facts (entailed by
     the initial domain or level 0) collapse into shared leaf nodes *)
  let visited = Hashtbl.create 64 in
  let roots = Hashtbl.create 16 in
  let node_decl idx =
    let atom = State.trail_atom s idx in
    let decision = State.trail_is_decision s idx in
    let is_bool = match atom with Pos _ | Neg _ -> true | _ -> false in
    (* an interval atom with no reason is a split decision: same double
       border as a Boolean decision, its own colour + label tag *)
    let is_split = decision && not is_bool in
    Format.fprintf fmt
      "  n%d [label=\"%s%s\\nL%d @@%d\", shape=%s%s, style=filled, \
       fillcolor=\"%s\"];@."
      idx (atom_label atom)
      (if is_split then "\\n[split]" else "")
      (State.trail_level s idx) idx
      (if is_bool then "ellipse" else "box")
      (if decision then ", peripheries=2" else "")
      (if is_split then "#ffd9a8" else if is_bool then "#cfe2ff" else "#fff3c4")
  in
  (* returns the DOT node id of the entry entailing [a] *)
  let rec node_of a =
    let idx = State.entailing_entry s a in
    if idx < 0 then begin
      let key = atom_label a in
      (match Hashtbl.find_opt roots key with
       | Some id -> id
       | None ->
         let id = Printf.sprintf "r%d" (Hashtbl.length roots) in
         Hashtbl.replace roots key id;
         Format.fprintf fmt
           "  %s [label=\"%s\\nroot\", shape=box, style=\"filled,dashed\", \
            fillcolor=\"#e8e8e8\"];@."
           id key;
         id)
    end
    else begin
      if not (Hashtbl.mem visited idx) then begin
        Hashtbl.replace visited idx ();
        node_decl idx;
        match State.trail_reason s idx with
        | None -> ()
        | Some reason ->
          Array.iter
            (fun b ->
               let src = node_of b in
               Format.fprintf fmt "  %s -> n%d;@." src idx)
            reason
      end;
      Printf.sprintf "n%d" idx
    end
  in
  Array.iter
    (fun a ->
       let src = node_of a in
       Format.fprintf fmt "  %s -> conflict;@." src)
    conflict;
  Format.fprintf fmt "}@."

(* direction-aware strength: of two entailed atoms on the same
   (var, direction), the old atom [b] and one in arena form, the
   stronger subsumes the weaker.  [b] itself when it is at least as
   strong (Pos/Neg: identical), so a table keeps its binding *)
let stronger code k b =
  match b with
  | Ge (_, k') when k' < k -> State.atom_of_code code k
  | Le (_, k') when k' > k -> State.atom_of_code code k
  | _ -> b

(* [implies stronger weaker] with the weaker atom in arena form *)
let implies b code k =
  let u = State.code_var code in
  match (b, State.code_kind code) with
  | Pos v, 0 | Neg v, 1 -> v = u
  | Ge (v, k1), 2 -> v = u && k1 >= k
  | Le (v, k1), 3 -> v = u && k1 <= k
  | _ -> false

let analyze s conflict =
  (* the trail index of the event entailing an atom, or -1 when it
     holds at level 0 *)
  let above_root idx = if idx >= 0 && State.trail_level s idx = 0 then -1 else idx in
  let entry_of a = above_root (State.entailing_entry s a) in
  (* conflict level: maximal level among the conflict atoms *)
  let current =
    Array.fold_left
      (fun acc a ->
         let idx = entry_of a in
         if idx < 0 then acc else max acc (State.trail_level s idx))
      0 conflict
  in
  if current = 0 then raise Root_conflict;
  (* pending: the trail indices at the conflict level still to
     resolve, each with its strongest needed atom in the scratch
     arrays.  lower: (var, direction) -> strongest needed atom below
     the conflict level; its fold and iteration orders fix the learned
     clause's atom order and minimisation's, so its keys stay tuples *)
  let n = State.trail_length s in
  if Array.length s.State.an_code < n then begin
    s.State.an_code <- Array.make (2 * n) 0;
    s.State.an_bound <- Array.make (2 * n) 0
  end;
  let need = s.State.an_code and need_k = s.State.an_bound in
  let n_pending = ref 0 in
  let lower : (int * int, atom) Hashtbl.t = Hashtbl.create 16 in
  (* an atom's (var, direction) key, the direction numbered as the
     arena's kinds *)
  let dir_key code = (State.code_var code, State.code_kind code) in
  (* one needed atom, in arena form; a second one on the same entry
     keeps the stronger bound of the same kind, else replaces it *)
  let add_code code k =
    State.bump_var s (State.code_var code);
    let idx = above_root (State.entailing_code s code k) in
    if idx >= 0 then begin
      if State.trail_level s idx = current then begin
        let c = need.(idx) - 1 in
        if c < 0 then incr n_pending;
        if c = code && State.code_kind code = 2 then need_k.(idx) <- max k need_k.(idx)
        else if c = code && State.code_kind code = 3 then need_k.(idx) <- min k need_k.(idx)
        else begin
          need.(idx) <- code + 1;
          need_k.(idx) <- k
        end
      end
      else begin
        let key = dir_key code in
        match Hashtbl.find lower key with
        | b ->
          let c = stronger code k b in
          if c != b then Hashtbl.replace lower key c
        | exception Not_found -> Hashtbl.replace lower key (State.atom_of_code code k)
      end
    end
  in
  Array.iter (fun a -> add_code (State.atom_code a) (State.atom_bound a)) conflict;
  (* cannot happen on a well-formed conflict; fail loudly, leaving the
     scratch clean *)
  let fail msg =
    Array.fill need 0 n 0;
    invalid_arg msg
  in
  let uip = ref (-1) in
  let idx = ref (n - 1) in
  while !uip < 0 do
    if !idx < 0 then fail "Conflict.analyze: exhausted trail";
    if need.(!idx) > 0 then begin
      if !n_pending = 1 then uip := !idx
      else begin
        need.(!idx) <- 0;
        decr n_pending;
        if State.trail_is_decision s !idx then
          (* a decision with other pending entries would contradict
             trail order (the decision is the level's first entry) *)
          fail "Conflict.analyze: resolved into a decision";
        let pos = s.State.tr_rpos.(!idx) in
        for j = pos to pos + s.State.tr_rlen.(!idx) - 1 do
          add_code s.State.rs.(2 * j) s.State.rs.((2 * j) + 1)
        done
      end
    end;
    decr idx
  done;
  let uip =
    let i = !uip in
    let a = State.atom_of_code (need.(i) - 1) need_k.(i) in
    need.(i) <- 0;
    a
  in
  (* clause minimization (self-subsumption): a kept atom [a] is
     redundant when the antecedents of its establishing event are all
     either root facts or implied by other atoms of the cut — then
     resolving [a] away cannot weaken the clause.  Only the cut atom
     with the antecedent's own (var, direction) can imply it. *)
  let redundant a =
    let idx = entry_of a in
    if idx < 0 then true (* root-entailed: trivially redundant in the cut *)
    else if State.trail_is_decision s idx then false
    else begin
      let pos = s.State.tr_rpos.(idx) in
      let ok = ref true and j = ref pos in
      while !ok && !j < pos + s.State.tr_rlen.(idx) do
        let code = s.State.rs.(2 * !j) and k = s.State.rs.((2 * !j) + 1) in
        ok :=
          above_root (State.entailing_code s code k) < 0
          || implies uip code k
          || (match Hashtbl.find lower (dir_key code) with
              | b -> b != a && implies b code k
              | exception Not_found -> false);
        incr j
      done;
      !ok
    end
  in
  let removed = ref true in
  while !removed do
    removed := false;
    Hashtbl.iter
      (fun key a ->
         if redundant a then begin
           Hashtbl.remove lower key;
           removed := true
         end)
      (Hashtbl.copy lower)
  done;
  let tail = Hashtbl.fold (fun _ a acc -> negate_atom a :: acc) lower [] in
  let clause = Array.of_list (negate_atom uip :: tail) in
  let btlevel =
    Hashtbl.fold
      (fun _ a acc ->
         let idx = entry_of a in
         if idx < 0 then acc else max acc (State.trail_level s idx))
      lower 0
  in
  { clause; btlevel }
