open Types
module Ir = Rtlsat_rtl.Ir
module Interval = Rtlsat_interval.Interval

type t = {
  problem : Problem.t;
  circuit : Ir.circuit;
  mutable var_of : var array;
  bits_cache : (int, var array) Hashtbl.t;
}

let term c v = (c, v)
let lin terms const = lin_of_terms terms const

(* Tseitin clauses for the Boolean operators *)

let clauses_not p ~z ~a =
  Problem.add_clause p [| Neg z; Neg a |];
  Problem.add_clause p [| Pos z; Pos a |]

let clauses_and p ~z ~args =
  Array.iter (fun a -> Problem.add_clause p [| Neg z; Pos a |]) args;
  let long = Array.append [| Pos z |] (Array.map (fun a -> Neg a) args) in
  Problem.add_clause p long

let clauses_or p ~z ~args =
  Array.iter (fun a -> Problem.add_clause p [| Pos z; Neg a |]) args;
  let long = Array.append [| Neg z |] (Array.map (fun a -> Pos a) args) in
  Problem.add_clause p long

let clauses_xor p ~z ~a ~b =
  Problem.add_clause p [| Neg z; Pos a; Pos b |];
  Problem.add_clause p [| Neg z; Neg a; Neg b |];
  Problem.add_clause p [| Pos z; Pos a; Neg b |];
  Problem.add_clause p [| Pos z; Neg a; Pos b |]

let clauses_bool_mux p ~z ~sel ~t ~e =
  Problem.add_clause p [| Neg sel; Neg t; Pos z |];
  Problem.add_clause p [| Neg sel; Pos t; Neg z |];
  Problem.add_clause p [| Pos sel; Neg e; Pos z |];
  Problem.add_clause p [| Pos sel; Pos e; Neg z |];
  (* redundant but propagation-strengthening: t=e -> z=t *)
  Problem.add_clause p [| Neg t; Neg e; Pos z |];
  Problem.add_clause p [| Pos t; Pos e; Neg z |]

(* Comparator model of §2.1: b1 |= a<=b, b2 |= b<=a, plus the paper's
   consistency clauses. *)
let encode_cmp p op ~z ~av ~bv ~name =
  let diff_ab = lin [ term 1 av; term (-1) bv ] 0 in      (* a - b <= 0 *)
  let diff_ba = lin [ term 1 bv; term (-1) av ] 0 in      (* b - a <= 0 *)
  match op with
  | Ir.Lt -> Problem.add_constr p (Pred { b = z; e = lin [ term 1 av; term (-1) bv ] 1 })
  | Ir.Le -> Problem.add_constr p (Pred { b = z; e = diff_ab })
  | Ir.Gt -> Problem.add_constr p (Pred { b = z; e = lin [ term 1 bv; term (-1) av ] 1 })
  | Ir.Ge -> Problem.add_constr p (Pred { b = z; e = diff_ba })
  | Ir.Eq | Ir.Ne ->
    let p1 = Problem.new_bool p ~name:(name ^ "_le") () in
    let p2 = Problem.new_bool p ~name:(name ^ "_ge") () in
    Problem.add_constr p (Pred { b = p1; e = diff_ab });
    Problem.add_constr p (Pred { b = p2; e = diff_ba });
    Problem.add_clause p [| Pos p1; Pos p2 |];
    (match op with
     | Ir.Eq ->
       Problem.add_clause p [| Neg z; Pos p1 |];
       Problem.add_clause p [| Neg z; Pos p2 |];
       Problem.add_clause p [| Pos z; Neg p1; Neg p2 |]
     | Ir.Ne ->
       Problem.add_clause p [| Pos z; Pos p1 |];
       Problem.add_clause p [| Pos z; Pos p2 |];
       Problem.add_clause p [| Neg z; Neg p1; Neg p2 |]
     | _ -> assert false)

let check_combinational nodes =
  List.iter
    (fun n -> match n.Ir.op with
       | Ir.Reg _ -> invalid_arg "Encode.encode: sequential circuit (unroll first)"
       | _ -> ())
    nodes

let encode_nodes t nodes =
  let p = t.problem in
  let bits_cache = t.bits_cache in
  let v n = t.var_of.(n.Ir.id) in
  let new_node_var n =
    let name = Ir.node_name n in
    if Ir.is_bool n then Problem.new_bool p ~name ()
    else Problem.new_word p ~name (Interval.of_width n.Ir.width)
  in
  let bits_of n =
    (* channel word node n into fresh per-bit Booleans (cached) *)
    match Hashtbl.find_opt bits_cache n.Ir.id with
    | Some bs -> bs
    | None ->
      let w = n.Ir.width in
      let name = Ir.node_name n in
      let bs =
        Array.init w (fun i ->
            Problem.new_bool p ~name:(Printf.sprintf "%s.%d" name i) ())
      in
      let terms =
        term (-1) (v n) :: List.init w (fun i -> term (1 lsl i) bs.(i))
      in
      Problem.add_constr p (Lin_eq (lin terms 0));
      Hashtbl.replace bits_cache n.Ir.id bs;
      bs
  in
  let encode_bitwise n a b mk_clauses =
    if n.Ir.width = 1 then begin
      let z = v n in
      mk_clauses ~z ~a:(v a) ~b:(v b)
    end
    else begin
      let za = bits_of a and zb = bits_of b and zz = bits_of n in
      Array.iteri (fun i _ -> mk_clauses ~z:zz.(i) ~a:za.(i) ~b:zb.(i)) zz
    end
  in
  let and_bit ~z ~a ~b = clauses_and p ~z ~args:[| a; b |] in
  let or_bit ~z ~a ~b = clauses_or p ~z ~args:[| a; b |] in
  let xor_bit ~z ~a ~b = clauses_xor p ~z ~a ~b in
  let encode_node n =
    let zv = new_node_var n in
    t.var_of.(n.Ir.id) <- zv;
    match n.Ir.op with
    | Ir.Input -> ()
    | Ir.Reg _ -> assert false
    | Ir.Const value ->
      if Ir.is_bool n then
        Problem.add_clause p [| (if value = 1 then Pos zv else Neg zv) |]
      else begin
        Problem.add_clause p [| Ge (zv, value) |];
        Problem.add_clause p [| Le (zv, value) |]
      end
    | Ir.Not a -> clauses_not p ~z:zv ~a:(v a)
    | Ir.And ns -> clauses_and p ~z:zv ~args:(Array.map v ns)
    | Ir.Or ns -> clauses_or p ~z:zv ~args:(Array.map v ns)
    | Ir.Xor (a, b) -> clauses_xor p ~z:zv ~a:(v a) ~b:(v b)
    | Ir.Mux { sel; t; e } ->
      if Ir.is_bool n then clauses_bool_mux p ~z:zv ~sel:(v sel) ~t:(v t) ~e:(v e)
      else Problem.add_constr p (Mux_w { sel = v sel; t = v t; e = v e; z = zv })
    | Ir.Add { a; b; wrap } ->
      if wrap then begin
        let ovf = Problem.new_bool p ~name:(Ir.node_name n ^ "_ovf") () in
        let m = 1 lsl n.Ir.width in
        Problem.add_constr p
          (Lin_eq (lin [ term 1 (v a); term 1 (v b); term (-1) zv; term (-m) ovf ] 0))
      end
      else
        Problem.add_constr p
          (Lin_eq (lin [ term 1 (v a); term 1 (v b); term (-1) zv ] 0))
    | Ir.Sub { a; b } ->
      let bor = Problem.new_bool p ~name:(Ir.node_name n ^ "_bor") () in
      let m = 1 lsl n.Ir.width in
      Problem.add_constr p
        (Lin_eq (lin [ term 1 (v a); term (-1) (v b); term (-1) zv; term m bor ] 0))
    | Ir.Mul_const { k; a } ->
      Problem.add_constr p (Lin_eq (lin [ term k (v a); term (-1) zv ] 0))
    | Ir.Cmp { op; a; b } ->
      encode_cmp p op ~z:zv ~av:(v a) ~bv:(v b) ~name:(Ir.node_name n)
    | Ir.Concat { hi; lo } ->
      Problem.add_constr p
        (Lin_eq (lin [ term (1 lsl lo.Ir.width) (v hi); term 1 (v lo); term (-1) zv ] 0))
    | Ir.Extract { a; msb; lsb } ->
      let w = a.Ir.width in
      let terms = ref [ term 1 (v a); term (-(1 lsl lsb)) zv ] in
      if lsb > 0 then begin
        let lo_part =
          Problem.new_word p
            ~name:(Ir.node_name n ^ "_lo")
            (Interval.of_width lsb)
        in
        terms := term (-1) lo_part :: !terms
      end;
      if msb < w - 1 then begin
        let hi_part =
          Problem.new_word p
            ~name:(Ir.node_name n ^ "_hi")
            (Interval.of_width (w - 1 - msb))
        in
        terms := term (-(1 lsl (msb + 1))) hi_part :: !terms
      end;
      Problem.add_constr p (Lin_eq (lin !terms 0))
    | Ir.Zext a ->
      Problem.add_constr p (Lin_eq (lin [ term 1 (v a); term (-1) zv ] 0))
    | Ir.Shl { a; k } ->
      Problem.add_constr p (Lin_eq (lin [ term (1 lsl k) (v a); term (-1) zv ] 0))
    | Ir.Shr { a; k } ->
      let r =
        Problem.new_word p ~name:(Ir.node_name n ^ "_rem") (Interval.of_width k)
      in
      Problem.add_constr p
        (Lin_eq (lin [ term 1 (v a); term (-(1 lsl k)) zv; term (-1) r ] 0))
    | Ir.Bitand (a, b) -> encode_bitwise n a b and_bit
    | Ir.Bitor (a, b) -> encode_bitwise n a b or_bit
    | Ir.Bitxor (a, b) -> encode_bitwise n a b xor_bit
  in
  List.iter encode_node nodes

let encode circuit =
  check_combinational (Ir.nodes circuit);
  let t =
    {
      problem = Problem.create ();
      circuit;
      var_of = Array.make circuit.Ir.ncount (-1);
      (* per-bit Boolean splitting cache for bitwise word operators;
         persistent so incremental extension reuses channelings *)
      bits_cache = Hashtbl.create 7;
    }
  in
  encode_nodes t (Ir.nodes circuit);
  t

(* incremental path: the circuit grew (e.g. more unrolled frames).
   Every encoded node has a variable, and node ids are append-only, so
   the nodes still to encode are exactly those at or above the old
   [var_of] length; existing variables — and the problem's numbering —
   are untouched. *)
let extend t =
  let c = t.circuit in
  let old = Array.length t.var_of in
  if c.Ir.ncount > old then begin
    let fresh = Ir.nodes_since c old in
    check_combinational fresh;
    let nv = Array.make c.Ir.ncount (-1) in
    Array.blit t.var_of 0 nv 0 old;
    t.var_of <- nv;
    encode_nodes t fresh
  end

let var t n = t.var_of.(n.Rtlsat_rtl.Ir.id)

let assume_bool t n value =
  if not (Ir.is_bool n) then invalid_arg "Encode.assume_bool: word node";
  Problem.add_clause t.problem [| (if value then Pos (var t n) else Neg (var t n)) |]

let assume_interval t n iv =
  if Ir.is_bool n then invalid_arg "Encode.assume_interval: Boolean node";
  Problem.add_clause t.problem [| Ge (var t n, Interval.lo iv) |];
  Problem.add_clause t.problem [| Le (var t n, Interval.hi iv) |]
