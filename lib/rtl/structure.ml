open Ir

(* a copy of [a] grown to [n] slots, or [a] itself when long enough *)
let grown a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let extend_levels lvl c =
  let from = Array.length lvl in
  let lvl = grown lvl c.ncount in
  let level_of n =
    match n.op with
    | Input | Const _ | Reg _ -> 0
    | _ -> 1 + List.fold_left (fun acc m -> max acc lvl.(m.id)) 0 (fanins n)
  in
  List.iter (fun n -> lvl.(n.id) <- level_of n) (nodes_since c from);
  lvl

let extend_fanout fo c =
  let from = Array.length fo in
  let fo = grown fo c.ncount in
  let count n =
    List.iter (fun m -> fo.(m.id) <- fo.(m.id) + 1) (fanins n);
    match n.op with
    | Reg { next = Some nx; _ } -> fo.(nx.id) <- fo.(nx.id) + 1
    | _ -> ()
  in
  List.iter count (nodes_since c from);
  fo

let levels c = extend_levels [||] c
let fanout_counts c = extend_fanout [||] c

let coi ?(through_regs = true) c roots =
  let mark = Array.make c.ncount false in
  let rec visit n =
    if not mark.(n.id) then begin
      mark.(n.id) <- true;
      List.iter visit (fanins n);
      match n.op with
      | Reg { next = Some nx; _ } when through_regs -> visit nx
      | _ -> ()
    end
  in
  List.iter visit roots;
  mark

let predicate_roots c =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add n =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.replace seen n.id ();
      out := n :: !out
    end
  in
  let scan n =
    match n.op with
    | Cmp _ -> add n
    | Mux { sel; _ } when not (is_bool n) -> add sel
    | _ -> ()
  in
  List.iter scan (nodes c);
  List.rev !out

let predicate_cone c =
  let mark = Array.make c.ncount false in
  let rec visit n =
    if is_bool n && not mark.(n.id) then begin
      mark.(n.id) <- true;
      match n.op with
      | Input | Const _ | Reg _ | Cmp _ -> ()
      | _ -> List.iter visit (fanins n)
    end
  in
  List.iter visit (predicate_roots c);
  mark

let candidate_gates c =
  let cone = predicate_cone c in
  let lvl = levels c in
  let is_candidate n =
    cone.(n.id)
    &&
    match n.op with
    | Not _ | And _ | Or _ | Xor _ | Cmp _ -> true
    | _ -> false
  in
  nodes c
  |> List.filter is_candidate
  |> List.stable_sort (fun a b -> compare lvl.(a.id) lvl.(b.id))

let op_counts c =
  let arith = ref 0 and boolean = ref 0 in
  let count n =
    match n.op with
    | Input | Const _ | Reg _ -> ()
    | Not _ | And _ | Or _ | Xor _ -> incr boolean
    | Cmp _ -> incr arith
    | Mux _ when is_bool n -> incr boolean
    | Mux _ | Add _ | Sub _ | Mul_const _ | Concat _ | Extract _ | Zext _
    | Shl _ | Shr _ | Bitand _ | Bitor _ | Bitxor _ -> incr arith
  in
  List.iter count (nodes c);
  (!arith, !boolean)
