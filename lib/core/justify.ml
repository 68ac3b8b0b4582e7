open Rtlsat_constr.Types
module Ir = Rtlsat_rtl.Ir
module Structure = Rtlsat_rtl.Structure
module Encode = Rtlsat_constr.Encode
module Problem = Rtlsat_constr.Problem
module Vec = Rtlsat_constr.Vec

(* inputs carry their solver var and node id; the choice heuristic
   (closest to the primary inputs first, then max fanout) reads the
   node's level and fanout, which grows with the circuit *)
type inp = { iv : var; inode : int }

type gate =
  | GAnd of { z : var; inputs : inp array }
  | GOr of { z : var; inputs : inp array }
  | GXor of { z : var; a : var; b : var }
  | GMuxB of { sel : var; t : var; e : var; z : var }
  | GMuxW of { sel : var; t : var; e : var; z : var }

(* Gates have ids in creation order; the scan visits them by position:
   descending level, ascending id.  The frontier is the set of live
   gates (those not retired) as a min-heap of positions, plus the
   stack of retirements with the trail length each was made at. *)
type t = {
  enc : Encode.t;
  mutable level : int array;      (* node id → level *)
  mutable fanout : int array;     (* node id → fanout *)
  gates : gate Vec.t;             (* gate id → gate *)
  glevel : int Vec.t;             (* gate id → level *)
  mutable order : int array;      (* position → gate id *)
  mutable pos : int array;        (* gate id → position *)
  mutable trig : int list array;  (* var → ids of the gates it wakes *)
  mutable live : Bytes.t;         (* gate id → live? *)
  mutable heap : int array;       (* positions of the live gates *)
  mutable hsize : int;
  rgate : int Vec.t;              (* retired gate ids, oldest first *)
  rtag : int Vec.t;               (* trail length at each retirement *)
  mutable seen : int;             (* trail entries read; -1 when fresh *)
  mutable checks : int;
}

exception Jconflict of atom array

let triggers = function
  | GAnd { z; _ } | GOr { z; _ } | GXor { z; _ } | GMuxB { z; _ } -> [ z ]
  | GMuxW { z; t; e; _ } -> [ z; t; e ]

let gate_of t n =
  let v m = t.enc.Encode.var_of.(m.Ir.id) in
  let inp m = { iv = v m; inode = m.Ir.id } in
  match n.Ir.op with
  | Ir.And ns -> Some (GAnd { z = v n; inputs = Array.map inp ns })
  | Ir.Or ns -> Some (GOr { z = v n; inputs = Array.map inp ns })
  | Ir.Xor (a, b) -> Some (GXor { z = v n; a = v a; b = v b })
  | Ir.Mux { sel; t = th; e } ->
    if Ir.is_bool n then Some (GMuxB { sel = v sel; t = v th; e = v e; z = v n })
    else Some (GMuxW { sel = v sel; t = v th; e = v e; z = v n })
  | _ -> None

(* every gate live, tracking from whatever trail the next decide sees *)
let reset t =
  let n = Vec.length t.gates in
  Bytes.fill t.live 0 n '\001';
  for p = 0 to n - 1 do
    t.heap.(p) <- p
  done;
  t.hsize <- n;
  Vec.clear t.rgate;
  Vec.clear t.rtag;
  t.seen <- -1

let extend t =
  let c = t.enc.Encode.circuit in
  let from = Array.length t.level in
  if c.Ir.ncount > from then begin
    t.level <- Structure.extend_levels t.level c;
    t.fanout <- Structure.extend_fanout t.fanout c;
    let old = Vec.length t.gates in
    List.iter
      (fun n ->
         match gate_of t n with
         | Some g ->
           Vec.push t.gates g;
           Vec.push t.glevel t.level.(n.Ir.id)
         | None -> ())
      (Ir.nodes_since c from);
    let n = Vec.length t.gates in
    let nv = Problem.n_vars t.enc.Encode.problem in
    if nv > Array.length t.trig then begin
      let trig = Array.make nv [] in
      Array.blit t.trig 0 trig 0 (Array.length t.trig);
      t.trig <- trig
    end;
    for g = old to n - 1 do
      List.iter (fun v -> t.trig.(v) <- g :: t.trig.(v)) (triggers (Vec.get t.gates g))
    done;
    (* outputs first: descending level, as in the worked example of
       Figure 4 where the output mux is justified before its fanin.
       Merging the sorted new gates in after the old ones of the same
       level gives the order a stable sort of all gates would *)
    let by_level a b = compare (Vec.get t.glevel b) (Vec.get t.glevel a) in
    let fresh = List.stable_sort by_level (List.init (n - old) (( + ) old)) in
    t.order <- Array.of_list (List.merge by_level (Array.to_list t.order) fresh);
    t.pos <- Array.make n 0;
    Array.iteri (fun p g -> t.pos.(g) <- p) t.order;
    t.live <- Bytes.create n;
    t.heap <- Array.make n 0
  end;
  reset t

let create enc =
  let t =
    {
      enc;
      level = [||];
      fanout = [||];
      gates = Vec.create ~dummy:(GXor { z = 0; a = 0; b = 0 }) ();
      glevel = Vec.create ~dummy:0 ();
      order = [||];
      pos = [||];
      trig = [||];
      live = Bytes.empty;
      heap = [||];
      hsize = 0;
      rgate = Vec.create ~dummy:0 ();
      rtag = Vec.create ~dummy:0 ();
      seen = -1;
      checks = 0;
    }
  in
  extend t;
  t

let n_candidates t = Vec.length t.gates
let fanout t = t.fanout
let checks t = t.checks

(* every gate's output is its first trigger *)
let scan_order t = Array.map (fun g -> List.hd (triggers (Vec.get t.gates g))) t.order

(* ---- the frontier: a min-heap of live positions ---- *)

let heap_push t p =
  let h = t.heap in
  let i = ref t.hsize in
  t.hsize <- t.hsize + 1;
  while !i > 0 && h.((!i - 1) / 2) > p do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- p

let heap_pop t =
  let h = t.heap in
  let n = t.hsize - 1 in
  t.hsize <- n;
  if n > 0 then begin
    let x = h.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < x then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- x
  end

let wake t g =
  if Bytes.get t.live g = '\000' then begin
    Bytes.set t.live g '\001';
    heap_push t t.pos.(g)
  end

let rec wake_all t = function
  | [] -> ()
  | g :: rest ->
    wake t g;
    wake_all t rest

(* ---- checking one gate (allocation-free until it decides) ---- *)

let rec has_value s inputs b k =
  k < Array.length inputs
  && (State.bool_value s inputs.(k).iv = b || has_value s inputs b (k + 1))

(* choose a free input: minimal distance from the inputs, then maximal
   fanout, the first on ties; -1 when none is free *)
let pick_input t s inputs =
  let best = ref (-1) in
  for k = 0 to Array.length inputs - 1 do
    let i = inputs.(k) in
    if State.bool_value s i.iv = -1 then
      if !best < 0 then best := k
      else begin
        let b = inputs.(!best).inode in
        let li = t.level.(i.inode) and lb = t.level.(b) in
        if li < lb || (li = lb && t.fanout.(i.inode) > t.fanout.(b)) then best := k
      end
  done;
  !best

let viable s x zv =
  let xv = State.bool_value s x in
  xv = -1 || xv = zv

let bound_atoms s v =
  let out = ref [] in
  if s.State.lb.(v) > s.State.init_lb.(v) then
    out := State.canonical s (Ge (v, s.State.lb.(v))) :: !out;
  if s.State.ub.(v) < s.State.init_ub.(v) then
    out := State.canonical s (Le (v, s.State.ub.(v))) :: !out;
  !out

let check_gate ?mux_pref t s gate =
  match gate with
  | GAnd { z; inputs } ->
    if State.bool_value s z = 0 && not (has_value s inputs 0 0) then begin
      let k = pick_input t s inputs in
      if k < 0 then None (* all inputs 1: propagation will conflict *)
      else Some (Neg inputs.(k).iv)
    end
    else None
  | GOr { z; inputs } ->
    if State.bool_value s z = 1 && not (has_value s inputs 1 0) then begin
      let k = pick_input t s inputs in
      if k < 0 then None else Some (Pos inputs.(k).iv)
    end
    else None
  | GXor { z; a; b } ->
    if State.bool_value s z <> -1
    && State.bool_value s a = -1
    && State.bool_value s b = -1
    then Some (Neg a)
    else None
  | GMuxB { sel; t = th; e; z } ->
    let zv = State.bool_value s z in
    if zv <> -1 && State.bool_value s sel = -1 then begin
      if viable s th zv && viable s e zv then Some (Pos sel) else None
      (* only one side viable: the mux clauses imply sel; none viable:
         they conflict — both handled by propagation *)
    end
    else None
  | GMuxW { sel; t = th; e; z } ->
    if State.bool_value s sel <> -1 then None
    else begin
      let lb = s.State.lb and ub = s.State.ub in
      let zl = lb.(z) and zu = ub.(z) in
      let tl = lb.(th) and tu = ub.(th) and el = lb.(e) and eu = ub.(e) in
      (* not required while the hull of both arms lies inside z *)
      if zl <= min tl el && max tu eu <= zu then None
      else begin
        (* each arm's overlap with z; 0 when disjoint (not viable) *)
        let ot = max 0 (min tu zu - max tl zl + 1) in
        let oe = max 0 (min eu zu - max el zl + 1) in
        if ot > 0 && oe > 0 then begin
          let choose_true =
            match mux_pref with
            | Some pref ->
              let ps, ns = pref sel in
              if ps <> ns then ps > ns else ot >= oe (* tie-break on overlap size *)
            | None -> ot >= oe
          in
          Some (if choose_true then Pos sel else Neg sel)
        end
        else if ot > 0 || oe > 0 then
          (* the disjointness propagator implies the select *)
          None
        else begin
          let atoms = bound_atoms s z @ bound_atoms s th @ bound_atoms s e in
          raise (Jconflict (Array.of_list atoms))
        end
      end
    end

(* ---- decide ---- *)

let rec scan ?mux_pref t s len =
  if t.hsize = 0 then None
  else begin
    let g = t.order.(t.heap.(0)) in
    t.checks <- t.checks + 1;
    match check_gate ?mux_pref t s (Vec.get t.gates g) with
    | Some _ as d -> d
    | None ->
      heap_pop t;
      Bytes.set t.live g '\000';
      Vec.push t.rgate g;
      Vec.push t.rtag len;
      scan ?mux_pref t s len
  end

let decide ?mux_pref t s =
  let len = State.trail_length s in
  if t.seen >= 0 then begin
    (* retirements made on trail entries popped since the last decide *)
    let low = s.State.low_water in
    while Vec.length t.rtag > 0 && Vec.top t.rtag > low do
      ignore (Vec.pop t.rtag);
      wake t (Vec.pop t.rgate)
    done;
    (* trail events since the last decide (all of them sit at or
       above the low-water mark) *)
    for i = low to len - 1 do
      let v = State.trail_var s i in
      if v < Array.length t.trig then wake_all t t.trig.(v)
    done
  end;
  t.seen <- len;
  s.State.low_water <- len;
  scan ?mux_pref t s len
