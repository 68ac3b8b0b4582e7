(* Test-only reference: the structural decision strategy as it was
   before the incremental J-frontier, kept verbatim below this header
   for the differential suite in test_justify.ml.  Its [decide] scans
   every gate from index 0 on each call. *)
module State = Rtlsat_core.State

open Rtlsat_constr.Types
module Ir = Rtlsat_rtl.Ir
module Structure = Rtlsat_rtl.Structure
module Encode = Rtlsat_constr.Encode
module Interval = Rtlsat_interval.Interval

(* inputs carry (solver var, node level, fanout) for the choice
   heuristic: closest to the primary inputs first, then max fanout *)
type inp = { iv : var; ilevel : int; ifanout : int }

type gate =
  | GAnd of { z : var; inputs : inp array }
  | GOr of { z : var; inputs : inp array }
  | GXor of { z : var; a : var; b : var }
  | GMuxB of { sel : var; t : var; e : var; z : var }
  | GMuxW of { sel : var; t : var; e : var; z : var }

type t = { gates : gate array }

exception Jconflict of atom array

let create (enc : Encode.t) =
  let c = enc.Encode.circuit in
  let lvl = Structure.levels c in
  let fo = Structure.fanout_counts c in
  let v n = enc.Encode.var_of.(n.Ir.id) in
  let inp n = { iv = v n; ilevel = lvl.(n.Ir.id); ifanout = fo.(n.Ir.id) } in
  let gates =
    List.filter_map
      (fun n ->
         match n.Ir.op with
         | Ir.And ns -> Some (lvl.(n.Ir.id), GAnd { z = v n; inputs = Array.map inp ns })
         | Ir.Or ns -> Some (lvl.(n.Ir.id), GOr { z = v n; inputs = Array.map inp ns })
         | Ir.Xor (a, b) -> Some (lvl.(n.Ir.id), GXor { z = v n; a = v a; b = v b })
         | Ir.Mux { sel; t; e } ->
           if Ir.is_bool n then
             Some (lvl.(n.Ir.id), GMuxB { sel = v sel; t = v t; e = v e; z = v n })
           else Some (lvl.(n.Ir.id), GMuxW { sel = v sel; t = v t; e = v e; z = v n })
         | _ -> None)
      (Ir.nodes c)
    (* outputs first: descending level, as in the worked example of
       Figure 4 where the output mux is justified before its fanin *)
    |> List.stable_sort (fun (l1, _) (l2, _) -> compare l2 l1)
    |> List.map snd
    |> Array.of_list
  in
  { gates }

let n_candidates t = Array.length t.gates

(* choose a free input: minimal distance from the inputs, then maximal
   fanout *)
let pick_input s inputs =
  Array.fold_left
    (fun best i ->
       if State.bool_value s i.iv <> -1 then best
       else
         match best with
         | None -> Some i
         | Some b ->
           if i.ilevel < b.ilevel || (i.ilevel = b.ilevel && i.ifanout > b.ifanout)
           then Some i
           else best)
    None inputs

let bound_atoms s v =
  let out = ref [] in
  if s.State.lb.(v) > s.State.init_lb.(v) then
    out := State.canonical s (Ge (v, s.State.lb.(v))) :: !out;
  if s.State.ub.(v) < s.State.init_ub.(v) then
    out := State.canonical s (Le (v, s.State.ub.(v))) :: !out;
  !out

let check_gate ?mux_pref t s gate =
  ignore t;
  match gate with
  | GAnd { z; inputs } ->
    if State.bool_value s z = 0
    && not (Array.exists (fun i -> State.bool_value s i.iv = 0) inputs)
    then
      match pick_input s inputs with
      | Some i -> Some (Neg i.iv)
      | None -> None (* all inputs 1: propagation will conflict *)
    else None
  | GOr { z; inputs } ->
    if State.bool_value s z = 1
    && not (Array.exists (fun i -> State.bool_value s i.iv = 1) inputs)
    then
      match pick_input s inputs with
      | Some i -> Some (Pos i.iv)
      | None -> None
    else None
  | GXor { z; a; b } ->
    if State.bool_value s z <> -1
    && State.bool_value s a = -1
    && State.bool_value s b = -1
    then Some (Neg a)
    else None
  | GMuxB { sel; t; e; z } ->
    let zv = State.bool_value s z in
    if zv <> -1 && State.bool_value s sel = -1 then begin
      let viable x = State.bool_value s x = -1 || State.bool_value s x = zv in
      if viable t && viable e then Some (Pos sel) else None
      (* only one side viable: the mux clauses imply sel; none viable:
         they conflict — both handled by propagation *)
    end
    else None
  | GMuxW { sel; t; e; z } ->
    if State.bool_value s sel <> -1 then None
    else begin
      let iz = State.dom s z and it = State.dom s t and ie = State.dom s e in
      let required = not (Interval.subset (Interval.hull it ie) iz) in
      if not required then None
      else begin
        let viable_t = not (Interval.disjoint it iz) in
        let viable_e = not (Interval.disjoint ie iz) in
        match (viable_t, viable_e) with
        | true, true ->
          let choose_true =
            match mux_pref with
            | Some pref ->
              let ps, ns = pref sel in
              if ps <> ns then ps > ns
              else
                (* tie-break on overlap size *)
                let size_opt = function None -> 0 | Some i -> Interval.size i in
                size_opt (Interval.inter it iz) >= size_opt (Interval.inter ie iz)
            | None ->
              let size_opt = function None -> 0 | Some i -> Interval.size i in
              size_opt (Interval.inter it iz) >= size_opt (Interval.inter ie iz)
          in
          Some (if choose_true then Pos sel else Neg sel)
        | true, false | false, true ->
          (* the disjointness propagator implies the select *)
          None
        | false, false ->
          let atoms = bound_atoms s z @ bound_atoms s t @ bound_atoms s e in
          raise (Jconflict (Array.of_list atoms))
      end
    end

let decide ?mux_pref t s =
  let n = Array.length t.gates in
  let rec scan i =
    if i >= n then None
    else
      match check_gate ?mux_pref t s t.gates.(i) with
      | Some a -> Some a
      | None -> scan (i + 1)
  in
  scan 0
