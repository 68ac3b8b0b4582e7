(* Test-only reference: hybrid conflict analysis as it was before the
   flat trail and reason arena, over State_ref, kept verbatim below
   this header for the lockstep suite in test_kernel.ml. *)
module State = State_ref

open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec

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
  let node_decl idx (e : State.entry) =
    let is_bool = match e.State.eatom with Pos _ | Neg _ -> true | _ -> false in
    (* an interval atom with no reason is a split decision: same double
       border as a Boolean decision, its own colour + label tag *)
    let is_split = e.State.ereason = None && not is_bool in
    Format.fprintf fmt
      "  n%d [label=\"%s%s\\nL%d @@%d\", shape=%s%s, style=filled, \
       fillcolor=\"%s\"];@."
      idx (atom_label e.State.eatom)
      (if is_split then "\\n[split]" else "")
      e.State.elevel idx
      (if is_bool then "ellipse" else "box")
      (match e.State.ereason with None -> ", peripheries=2" | Some _ -> "")
      (if is_split then "#ffd9a8" else if is_bool then "#cfe2ff" else "#fff3c4")
  in
  (* returns the DOT node id of the entry entailing [a] *)
  let rec node_of a =
    match State.entailing_entry s a with
    | None ->
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
    | Some idx ->
      if not (Hashtbl.mem visited idx) then begin
        Hashtbl.replace visited idx ();
        let e = Vec.get s.State.trail idx in
        node_decl idx e;
        match e.State.ereason with
        | None -> ()
        | Some reason ->
          Array.iter
            (fun b ->
               let src = node_of b in
               Format.fprintf fmt "  %s -> n%d;@." src idx)
            reason
      end;
      Printf.sprintf "n%d" idx
  in
  Array.iter
    (fun a ->
       let src = node_of a in
       Format.fprintf fmt "  %s -> conflict;@." src)
    conflict;
  Format.fprintf fmt "}@."

(* direction-aware strength: for two entailed atoms on the same
   (var, direction), the stronger one subsumes the weaker *)
let stronger a b =
  match (a, b) with
  | Ge (v, k1), Ge (v', k2) when v = v' -> Ge (v, max k1 k2)
  | Le (v, k1), Le (v', k2) when v = v' -> Le (v, min k1 k2)
  | _ -> a (* Pos/Neg: identical *)

let dir_key = function
  | Pos v -> (v, 0)
  | Neg v -> (v, 1)
  | Ge (v, _) -> (v, 2)
  | Le (v, _) -> (v, 3)

let analyze s conflict =
  let entry_of a =
    match State.entailing_entry s a with
    | None -> None
    | Some idx ->
      let e = Vec.get s.State.trail idx in
      if e.State.elevel = 0 then None else Some (idx, e)
  in
  (* conflict level: maximal level among the conflict atoms *)
  let current =
    Array.fold_left
      (fun acc a ->
         match entry_of a with None -> acc | Some (_, e) -> max acc e.State.elevel)
      0 conflict
  in
  if current = 0 then raise Root_conflict;
  (* pending: trail index -> strongest needed atom at the conflict level
     lower: (var, direction) -> strongest needed atom below it *)
  let pending : (int, atom) Hashtbl.t = Hashtbl.create 16 in
  let lower : (int * int, atom) Hashtbl.t = Hashtbl.create 16 in
  let add a =
    State.bump_var s (atom_var a);
    match entry_of a with
    | None -> ()
    | Some (idx, e) ->
      if e.State.elevel = current then begin
        match Hashtbl.find_opt pending idx with
        | None -> Hashtbl.replace pending idx a
        | Some b -> Hashtbl.replace pending idx (stronger a b)
      end
      else begin
        let key = dir_key a in
        match Hashtbl.find_opt lower key with
        | None -> Hashtbl.replace lower key a
        | Some b -> Hashtbl.replace lower key (stronger a b)
      end
  in
  Array.iter add conflict;
  let uip = ref None in
  let idx = ref (Vec.length s.State.trail - 1) in
  while !uip = None do
    if !idx < 0 then
      (* cannot happen on a well-formed conflict; fail loudly *)
      invalid_arg "Conflict.analyze: exhausted trail";
    (match Hashtbl.find_opt pending !idx with
     | None -> ()
     | Some needed ->
       if Hashtbl.length pending = 1 then uip := Some needed
       else begin
         Hashtbl.remove pending !idx;
         let e = Vec.get s.State.trail !idx in
         match e.State.ereason with
         | Some reason -> Array.iter add reason
         | None ->
           (* a decision with other pending entries would contradict
              trail order (the decision is the level's first entry) *)
           invalid_arg "Conflict.analyze: resolved into a decision"
       end);
    decr idx
  done;
  let uip = Option.get !uip in
  (* clause minimization (self-subsumption): a kept atom [a] is
     redundant when the antecedents of its establishing event are all
     either root facts or implied by other atoms of the cut — then
     resolving [a] away cannot weaken the clause *)
  let implies stronger weaker =
    match (stronger, weaker) with
    | Pos v, Pos u | Neg v, Neg u -> v = u
    | Ge (v, k1), Ge (u, k2) -> v = u && k1 >= k2
    | Le (v, k1), Le (u, k2) -> v = u && k1 <= k2
    | _ -> false
  in
  let atoms () = Hashtbl.fold (fun _ a acc -> a :: acc) lower [] in
  let redundant a =
    match entry_of a with
    | None -> true (* root-entailed: trivially redundant in the cut *)
    | Some (_, e) ->
      (match e.State.ereason with
       | None -> false (* decision *)
       | Some reason ->
         Array.for_all
           (fun r ->
              (match entry_of r with None -> true | Some _ -> false)
              || implies uip r
              || List.exists (fun b -> b != a && implies b r) (atoms ()))
           reason)
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
         match entry_of a with None -> acc | Some (_, e) -> max acc e.State.elevel)
      lower 0
  in
  { clause; btlevel }
