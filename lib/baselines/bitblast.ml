module Ir = Rtlsat_rtl.Ir
module C = Rtlsat_sat.Cdcl
module Interval = Rtlsat_interval.Interval

type t = {
  sat : C.t;
  circuit : Ir.circuit;
  mutable bits : C.lit array array; (* node id -> literals, LSB first *)
  ltrue : C.lit;
  mutable preprocessed : bool; (* [simplify] has run its one pass *)
}

let solver t = t.sat

(* ---- Tseitin gate helpers ---- *)

let fresh t = C.pos (C.new_var t.sat)

let lfalse t = C.lit_not t.ltrue

(* Each gate folds a constant, repeated or complementary input to an
   existing literal, with no variable and no clause (the contract in
   bitblast.mli); only a gate over two unrelated literals gets a fresh
   output and its Tseitin clauses. *)

let mk_and2 t a b =
  let f = lfalse t in
  if a = f || b = f || a = C.lit_not b then f
  else if a = t.ltrue || a = b then b
  else if b = t.ltrue then a
  else begin
    let z = fresh t in
    C.add_clause t.sat [ C.lit_not z; a ];
    C.add_clause t.sat [ C.lit_not z; b ];
    C.add_clause t.sat [ z; C.lit_not a; C.lit_not b ];
    z
  end

let mk_or2 t a b =
  let f = lfalse t in
  if a = t.ltrue || b = t.ltrue || a = C.lit_not b then t.ltrue
  else if a = f || a = b then b
  else if b = f then a
  else begin
    let z = fresh t in
    C.add_clause t.sat [ z; C.lit_not a ];
    C.add_clause t.sat [ z; C.lit_not b ];
    C.add_clause t.sat [ C.lit_not z; a; b ];
    z
  end

let mk_xor2 t a b =
  let f = lfalse t in
  if a = b then f
  else if a = C.lit_not b then t.ltrue
  else if a = f then b
  else if b = f then a
  else if a = t.ltrue then C.lit_not b
  else if b = t.ltrue then C.lit_not a
  else begin
    let z = fresh t in
    C.add_clause t.sat [ C.lit_not z; a; b ];
    C.add_clause t.sat [ C.lit_not z; C.lit_not a; C.lit_not b ];
    C.add_clause t.sat [ z; a; C.lit_not b ];
    C.add_clause t.sat [ z; C.lit_not a; b ];
    z
  end

let mk_and t = function
  | [] -> t.ltrue
  | l :: rest -> List.fold_left (mk_and2 t) l rest

let mk_or t = function
  | [] -> lfalse t
  | l :: rest -> List.fold_left (mk_or2 t) l rest

let mk_mux t ~sel ~th ~el =
  (* sel ? th : el *)
  if sel = t.ltrue || th = el then th
  else if sel = lfalse t then el
  else if th = t.ltrue && el = lfalse t then sel
  else if th = lfalse t && el = t.ltrue then C.lit_not sel
  else begin
    let z = fresh t in
    C.add_clause t.sat [ C.lit_not sel; C.lit_not th; z ];
    C.add_clause t.sat [ C.lit_not sel; th; C.lit_not z ];
    C.add_clause t.sat [ sel; C.lit_not el; z ];
    C.add_clause t.sat [ sel; el; C.lit_not z ];
    z
  end

let full_adder t a b cin =
  let sum = mk_xor2 t (mk_xor2 t a b) cin in
  let cout = mk_or2 t (mk_and2 t a b) (mk_and2 t cin (mk_or2 t a b)) in
  (sum, cout)

(* ripple-carry addition of equal-width vectors; returns (bits, carry) *)
let ripple_add t av bv cin =
  let w = Array.length av in
  let out = Array.make w t.ltrue in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder t av.(i) bv.(i) !carry in
    out.(i) <- s;
    carry := c
  done;
  (out, !carry)

let zext_bits t bv w =
  let cur = Array.length bv in
  if cur >= w then Array.sub bv 0 w
  else Array.append bv (Array.make (w - cur) (lfalse t))

(* unsigned a < b via borrow chain *)
let mk_ult t av bv =
  let w = Array.length av in
  let borrow = ref (lfalse t) in
  for i = 0 to w - 1 do
    (* borrow' = (¬a ∧ b) when the bits differ, else the previous
       borrow *)
    let differ = mk_xor2 t av.(i) bv.(i) in
    borrow :=
      mk_mux t ~sel:differ ~th:(mk_and2 t (C.lit_not av.(i)) bv.(i)) ~el:!borrow
  done;
  !borrow

let mk_eq_vec t av bv =
  let w = Array.length av in
  let bits = List.init w (fun i -> C.lit_not (mk_xor2 t av.(i) bv.(i))) in
  mk_and t bits

let const_bits t value w =
  Array.init w (fun i -> if (value lsr i) land 1 = 1 then t.ltrue else lfalse t)

let check_combinational nodes =
  List.iter
    (fun n ->
       match n.Ir.op with
       | Ir.Reg _ -> invalid_arg "Bitblast.encode: sequential circuit (unroll first)"
       | _ -> ())
    nodes

let encode_nodes t nodes =
  let bit n = t.bits.(n.Ir.id).(0) in
  let bits n = t.bits.(n.Ir.id) in
  let encode_node n =
    let w = n.Ir.width in
    let out =
      match n.Ir.op with
      | Ir.Reg _ -> assert false
      | Ir.Input -> Array.init w (fun _ -> fresh t)
      | Ir.Const v -> const_bits t v w
      | Ir.Not a -> [| C.lit_not (bit a) |]
      | Ir.And ns -> [| mk_and t (Array.to_list (Array.map bit ns)) |]
      | Ir.Or ns -> [| mk_or t (Array.to_list (Array.map bit ns)) |]
      | Ir.Xor (a, b) -> [| mk_xor2 t (bit a) (bit b) |]
      | Ir.Mux { sel; t = th; e } ->
        Array.init w (fun i ->
            mk_mux t ~sel:(bit sel) ~th:(bits th).(i) ~el:(bits e).(i))
      | Ir.Add { a; b; wrap } ->
        if wrap then fst (ripple_add t (bits a) (bits b) (lfalse t))
        else begin
          let sum, carry = ripple_add t (bits a) (bits b) (lfalse t) in
          Array.append sum [| carry |]
        end
      | Ir.Sub { a; b } ->
        (* a - b = a + ¬b + 1 modulo 2^w *)
        fst (ripple_add t (bits a) (Array.map C.lit_not (bits b)) t.ltrue)
      | Ir.Mul_const { k; a } ->
        let acc = ref (const_bits t 0 w) in
        let rec go i k =
          if k <> 0 then begin
            if k land 1 = 1 then begin
              (* acc += a << i, no overflow by construction *)
              let shifted =
                Array.append (Array.make i (lfalse t)) (bits a) |> fun v ->
                zext_bits t v w
              in
              acc := fst (ripple_add t !acc shifted (lfalse t))
            end;
            go (i + 1) (k lsr 1)
          end
        in
        go 0 k;
        !acc
      | Ir.Cmp { op; a; b } ->
        let av = bits a and bv = bits b in
        let l =
          match op with
          | Ir.Eq -> mk_eq_vec t av bv
          | Ir.Ne -> C.lit_not (mk_eq_vec t av bv)
          | Ir.Lt -> mk_ult t av bv
          | Ir.Ge -> C.lit_not (mk_ult t av bv)
          | Ir.Gt -> mk_ult t bv av
          | Ir.Le -> C.lit_not (mk_ult t bv av)
        in
        [| l |]
      | Ir.Concat { hi; lo } -> Array.append (bits lo) (bits hi)
      | Ir.Extract { a; msb; lsb } -> Array.sub (bits a) lsb (msb - lsb + 1)
      | Ir.Zext a -> zext_bits t (bits a) w
      | Ir.Shl { a; k } -> Array.append (Array.make k (lfalse t)) (bits a)
      | Ir.Shr { a; k } ->
        let av = bits a in
        Array.init w (fun i ->
            if i + k < Array.length av then av.(i + k) else lfalse t)
      | Ir.Bitand (a, b) ->
        Array.init w (fun i -> mk_and2 t (bits a).(i) (bits b).(i))
      | Ir.Bitor (a, b) ->
        Array.init w (fun i -> mk_or2 t (bits a).(i) (bits b).(i))
      | Ir.Bitxor (a, b) ->
        Array.init w (fun i -> mk_xor2 t (bits a).(i) (bits b).(i))
    in
    assert (Array.length out = w);
    t.bits.(n.Ir.id) <- out
  in
  List.iter encode_node nodes

let encode circuit =
  check_combinational (Ir.nodes circuit);
  let sat = C.create () in
  let tvar = C.new_var sat in
  C.add_clause sat [ C.pos tvar ];
  let t =
    {
      sat;
      circuit;
      bits = Array.make circuit.Ir.ncount [||];
      ltrue = C.pos tvar;
      preprocessed = false;
    }
  in
  encode_nodes t (Ir.nodes circuit);
  t

(* incremental path mirroring [Encode.extend]: blast only the nodes
   appended to the circuit since the last encode/extend, keeping the
   CDCL solver — and its learned clauses — intact.  Every encoded node
   has at least one bit and node ids are append-only, so the length of
   [bits] is the encoded-node watermark. *)
let extend t =
  let c = t.circuit in
  let old = Array.length t.bits in
  if c.Ir.ncount > old then begin
    let fresh = Ir.nodes_since c old in
    check_combinational fresh;
    let nb = Array.make c.Ir.ncount [||] in
    Array.blit t.bits 0 nb 0 old;
    t.bits <- nb;
    encode_nodes t fresh
  end

let bool_lit t n =
  if not (Ir.is_bool n) then invalid_arg "Bitblast.bool_lit: word node";
  t.bits.(n.Ir.id).(0)

let assume_bool t n value =
  if not (Ir.is_bool n) then invalid_arg "Bitblast.assume_bool: word node";
  let l = t.bits.(n.Ir.id).(0) in
  C.add_clause t.sat [ (if value then l else C.lit_not l) ]

let assume_interval t n iv =
  let w = n.Ir.width in
  let bv = t.bits.(n.Ir.id) in
  (* n >= lo: ¬(n < lo); n <= hi: ¬(hi < n) *)
  let lo = Interval.lo iv and hi = Interval.hi iv in
  if lo > 0 then C.add_clause t.sat [ C.lit_not (mk_ult t bv (const_bits t lo w)) ];
  if hi < (1 lsl w) - 1 then
    C.add_clause t.sat [ C.lit_not (mk_ult t (const_bits t hi w) bv) ]

type result = Sat | Unsat | Timeout

(* Preprocess the underlying CNF once per encoding: re-running the
   whole-database pass per sweep bound cost more than the search it
   sped up, and its work grew with the learned clauses.  Later frames
   reach the watched database through [C.add_clause], which rewrites
   them through the first pass's substitution.  [elim] (variable
   elimination) is only sound for one-shot use: it must stay off when
   the encoding will grow ([extend]) or literals will be assumed
   later, because eliminated variables may no longer be mentioned. *)
let simplify ?(elim = false) ?deadline ?cancel t =
  if not t.preprocessed then begin
    t.preprocessed <- true;
    C.simplify ~elim ?deadline ?cancel t.sat
  end

let preprocessed t = t.preprocessed
let simp_stats t = C.simp_stats t.sat

let solve ?deadline ?assumptions ?inprocess ?cancel t =
  match C.solve ?deadline ?assumptions ?inprocess ?cancel t.sat with
  | C.Sat -> Sat
  | C.Unsat -> Unsat
  | C.Timeout -> Timeout

let node_value t n =
  let bv = t.bits.(n.Ir.id) in
  let acc = ref 0 in
  Array.iteri
    (fun i l ->
       let v = C.value t.sat (C.lit_var l) in
       let v = if C.lit_sign l then v else not v in
       if v then acc := !acc lor (1 lsl i))
    bv;
  !acc

let model_env = node_value

let to_dimacs t =
  let buf = Buffer.create 65536 in
  let dimacs_lit l =
    let v = C.lit_var l + 1 in
    if C.lit_sign l then v else -v
  in
  let units = C.root_units t.sat in
  (* a clause whose literals were all root-false is discarded by
     Cdcl.add_clause after flagging the root conflict, so the stored
     clauses alone under-constrain the formula: emit an explicit empty
     clause to keep the export equisatisfiable *)
  let root_conflict = C.root_conflict t.sat in
  let n_clauses =
    C.n_clauses t.sat + List.length units + (if root_conflict then 1 else 0)
  in
  Buffer.add_string buf
    (Printf.sprintf "c rtlsat bit-blast of %s\np cnf %d %d\n" t.circuit.Ir.cname
       (C.n_vars t.sat) n_clauses);
  if root_conflict then Buffer.add_string buf "0\n";
  List.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%d 0\n" (dimacs_lit l)))
    units;
  C.fold_clauses
    (fun () cl ->
       Array.iter
         (fun l -> Buffer.add_string buf (string_of_int (dimacs_lit l) ^ " "))
         cl;
       Buffer.add_string buf "0\n")
    () t.sat;
  Buffer.contents buf
