(* The propagation kernel against a reference: [check_clause] and
   [propagate_constr] must behave exactly like the straightforward
   list/option formulation kept below (the kernel's original form), on
   random clauses and constraints over random bound states — 61-bit
   domains and coefficients near 2^60 included, where the checked
   arithmetic's skip-on-overflow decides what is propagated.  "Exactly"
   means the same outcome (no-op, the same asserted atoms with identical
   reason arrays in the same order, or an identical conflict array) and
   the same bounds afterwards. *)

open Rtlsat_constr.Types
module P = Rtlsat_constr.Problem
module I = Rtlsat_interval.Interval
module State = Rtlsat_core.State
module Propagate = Rtlsat_core.Propagate

(* ---- reference implementation ---- *)

module Ref = struct
  let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
  let cdiv a b = -(fdiv (-a) b)

  let check_clause s ci =
    let c = State.clause s ci in
    if not (Array.exists (State.entailed s) c) then begin
      let non_false = ref [] in
      Array.iter (fun a -> if not (State.falsified s a) then non_false := a :: !non_false) c;
      match !non_false with
      | [] -> raise (State.Conflict (Array.map negate_atom c))
      | [ a ] ->
        let reason =
          Array.of_list
            (List.filter_map
               (fun b -> if b == a then None else Some (negate_atom b))
               (Array.to_list c))
        in
        State.assert_atom s a (Some reason)
      | _ -> ()
    end

  let mul_opt = Rtlsat_num.Checked.mul
  let add_opt = Rtlsat_num.Checked.add
  let sub_opt = Rtlsat_num.Checked.sub
  let ( let* ) = Option.bind

  let min_value s (e : linexpr) =
    List.fold_left
      (fun acc (c, v) ->
         let* m = acc in
         let* p = mul_opt c (if c > 0 then s.State.lb.(v) else s.State.ub.(v)) in
         add_opt m p)
      (Some e.const) e.terms

  let max_value s (e : linexpr) =
    List.fold_left
      (fun acc (c, v) ->
         let* m = acc in
         let* p = mul_opt c (if c > 0 then s.State.ub.(v) else s.State.lb.(v)) in
         add_opt m p)
      (Some e.const) e.terms

  let min_rest s (e : linexpr) ~except =
    List.fold_left
      (fun acc (c, v) ->
         if v = except then acc
         else
           let* m = acc in
           let* p = mul_opt c (if c > 0 then s.State.lb.(v) else s.State.ub.(v)) in
           add_opt m p)
      (Some e.const) e.terms

  let bound_atom_lo s v =
    if s.State.lb.(v) > s.State.init_lb.(v) then
      Some (State.canonical s (Ge (v, s.State.lb.(v))))
    else None

  let bound_atom_hi s v =
    if s.State.ub.(v) < s.State.init_ub.(v) then
      Some (State.canonical s (Le (v, s.State.ub.(v))))
    else None

  let min_expl s (e : linexpr) ~except =
    List.filter_map
      (fun (c, v) ->
         if v = except then None else if c > 0 then bound_atom_lo s v else bound_atom_hi s v)
      e.terms

  let max_expl s (e : linexpr) ~except =
    List.filter_map
      (fun (c, v) ->
         if v = except then None else if c > 0 then bound_atom_hi s v else bound_atom_lo s v)
      e.terms

  let propagate_le s ?(extra = []) (e : linexpr) =
    let m_opt = min_value s e in
    (match m_opt with
     | Some m when m > 0 ->
       raise (State.Conflict (Array.of_list (min_expl s e ~except:(-1) @ extra)))
     | _ -> ());
    List.iter
      (fun (c, v) ->
         let rest =
           match m_opt with
           | Some m ->
             let* contribution =
               mul_opt c (if c > 0 then s.State.lb.(v) else s.State.ub.(v))
             in
             sub_opt m contribution
           | None -> min_rest s e ~except:v
         in
         match rest with
         | None -> ()
         | Some rest when rest = min_int -> ()
         | Some rest ->
           if c > 0 then begin
             let ub' = fdiv (-rest) c in
             if ub' < s.State.ub.(v) then begin
               let reason = Array.of_list (min_expl s e ~except:v @ extra) in
               State.assert_atom s (State.canonical s (Le (v, ub'))) (Some reason)
             end
           end
           else begin
             let lb' = cdiv rest (-c) in
             if lb' > s.State.lb.(v) then begin
               let reason = Array.of_list (min_expl s e ~except:v @ extra) in
               State.assert_atom s (State.canonical s (Ge (v, lb'))) (Some reason)
             end
           end)
      e.terms

  let negate_le (e : linexpr) =
    let n = lin_neg e in
    { n with const = n.const + 1 }

  let propagate_constr s ci =
    match P.constr_at s.State.prob ci with
    | Lin_le e -> propagate_le s e
    | Lin_eq e ->
      propagate_le s e;
      propagate_le s (lin_neg e)
    | Pred { b; e } ->
      (match State.bool_value s b with
       | 1 -> propagate_le s ~extra:[ Pos b ] e
       | 0 -> propagate_le s ~extra:[ Neg b ] (negate_le e)
       | _ ->
         (match max_value s e with
          | Some mx when mx <= 0 ->
            State.assert_atom s (Pos b) (Some (Array.of_list (max_expl s e ~except:(-1))))
          | _ ->
            (match min_value s e with
             | Some m when m > 0 ->
               State.assert_atom s (Neg b) (Some (Array.of_list (min_expl s e ~except:(-1))))
             | _ -> ())))
    | Mux_w { sel; t; e; z } ->
      let lb = s.State.lb and ub = s.State.ub in
      let equality extra x =
        if lb.(x) > lb.(z) then
          State.assert_atom s
            (State.canonical s (Ge (z, lb.(x))))
            (Some (Array.of_list (extra @ Option.to_list (bound_atom_lo s x))));
        if ub.(x) < ub.(z) then
          State.assert_atom s
            (State.canonical s (Le (z, ub.(x))))
            (Some (Array.of_list (extra @ Option.to_list (bound_atom_hi s x))));
        if lb.(z) > lb.(x) then
          State.assert_atom s
            (State.canonical s (Ge (x, lb.(z))))
            (Some (Array.of_list (extra @ Option.to_list (bound_atom_lo s z))));
        if ub.(z) < ub.(x) then
          State.assert_atom s
            (State.canonical s (Le (x, ub.(z))))
            (Some (Array.of_list (extra @ Option.to_list (bound_atom_hi s z))))
      in
      (match State.bool_value s sel with
       | 1 -> equality [ Pos sel ] t
       | 0 -> equality [ Neg sel ] e
       | _ ->
         let klo = min lb.(t) lb.(e) in
         if klo > lb.(z) then begin
           let reason = [| State.canonical s (Ge (t, klo)); State.canonical s (Ge (e, klo)) |] in
           State.assert_atom s (State.canonical s (Ge (z, klo))) (Some reason)
         end;
         let khi = max ub.(t) ub.(e) in
         if khi < ub.(z) then begin
           let reason = [| State.canonical s (Le (t, khi)); State.canonical s (Le (e, khi)) |] in
           State.assert_atom s (State.canonical s (Le (z, khi))) (Some reason)
         end;
         let disjoint_expl x =
           if lb.(z) > ub.(x) then
             Some [| State.canonical s (Ge (z, ub.(x) + 1)); State.canonical s (Le (x, ub.(x))) |]
           else if ub.(z) < lb.(x) then
             Some [| State.canonical s (Le (z, lb.(x) - 1)); State.canonical s (Ge (x, lb.(x))) |]
           else None
         in
         (match disjoint_expl t with
          | Some reason -> State.assert_atom s (Neg sel) (Some reason)
          | None -> ());
         (match disjoint_expl e with
          | Some reason -> State.assert_atom s (Pos sel) (Some reason)
          | None -> ()))
end

(* ---- random scenarios ---- *)

let max_word = (1 lsl 61) - 1

(* a value of one of the magnitudes the encoder produces, or near the
   native overflow boundary *)
let pick_int r =
  match Random.State.int r 7 with
  | 0 -> Random.State.int r 11 - 5
  | 1 -> Random.State.int r 2001 - 1000
  | 2 -> (1 lsl 60) - Random.State.int r 4
  | 3 -> -(1 lsl 60) + Random.State.int r 4
  | 4 -> max_word - Random.State.int r 4
  | 5 ->
    (* around the kernel's native fast-path limit, 2^30 *)
    let m = (1 lsl (29 + Random.State.int r 4)) - 2 + Random.State.int r 4 in
    if Random.State.bool r then m else -m
  | _ -> Random.State.bits r - Random.State.bits r

let pick r a = a.(Random.State.int r (Array.length a))

type scenario = {
  bools : int;
  words : (int * int) array;  (* initial domains *)
  cur : (int * int) array;    (* current bounds of every variable *)
  clause : atom array;
  constr : constr;
}

let gen_domain r =
  match Random.State.int r 5 with
  | 0 -> (0, Random.State.int r 16)
  | 1 -> (0, max_word)
  | 2 -> (-(1 lsl 20), 1 lsl 20)
  | 3 -> let m = 1 lsl (30 + Random.State.int r 3) in (-m, m)
  | _ ->
    let a = pick_int r and b = pick_int r in
    (min a b, max a b)

(* uniform in [lo, hi] (domains here never span more than max_int) *)
let inside r lo hi = lo + Random.State.full_int r (hi - lo + 1)

let gen_sub r (lo, hi) =
  match Random.State.int r 4 with
  | 0 -> (lo, hi)
  | 1 -> (inside r lo hi, hi)
  | 2 -> (lo, max lo (hi - Random.State.int r 3))
  | _ ->
    let a = inside r lo hi and b = inside r lo hi in
    (min a b, max a b)

let gen_scenario seed =
  let r = Random.State.make [| seed |] in
  let bools = 1 + Random.State.int r 3 in
  let words = Array.init (1 + Random.State.int r 4) (fun _ -> gen_domain r) in
  let nv = bools + Array.length words in
  let cur =
    Array.init nv (fun v ->
        if v < bools then pick r [| (0, 1); (0, 0); (1, 1) |] else gen_sub r words.(v - bools))
  in
  let bool_var () = Random.State.int r bools in
  let word_var () = bools + Random.State.int r (Array.length words) in
  let any_var () = Random.State.int r nv in
  (* thresholds around the current bounds, so every atom state occurs *)
  let threshold v =
    let lo, hi = cur.(v) in
    match Random.State.int r 5 with
    | 0 -> lo
    | 1 -> hi
    | 2 -> if lo > min_int then lo - 1 else lo
    | 3 -> if hi < max_int then hi + 1 else hi
    | _ -> inside r lo hi
  in
  let atom () =
    match Random.State.int r 4 with
    | 0 -> Pos (bool_var ())
    | 1 -> Neg (bool_var ())
    | 2 -> let v = word_var () in Ge (v, threshold v)
    | _ -> let v = word_var () in Le (v, threshold v)
  in
  let clause = Array.init (Random.State.int r 6) (fun _ -> atom ()) in
  (* a physically shared atom: the unit test is by identity *)
  let n = Array.length clause in
  if n >= 2 && Random.State.int r 4 = 0 then
    clause.(Random.State.int r n) <- clause.(Random.State.int r n);
  let linexpr () =
    {
      terms =
        List.init (1 + Random.State.int r 4) (fun _ ->
            let c = pick_int r in
            ((if c = 0 then 1 else c), any_var ()));
      const = pick_int r;
    }
  in
  let constr =
    match Random.State.int r 4 with
    | 0 -> Lin_le (linexpr ())
    | 1 -> Lin_eq (linexpr ())
    | 2 -> Pred { b = bool_var (); e = linexpr () }
    | _ -> Mux_w { sel = bool_var (); t = word_var (); e = word_var (); z = word_var () }
  in
  { bools; words; cur; clause; constr }

let build sc =
  let p = P.create () in
  for _ = 1 to sc.bools do ignore (P.new_bool p ()) done;
  Array.iter (fun (lo, hi) -> ignore (P.new_word p (I.make lo hi))) sc.words;
  P.add_constr p sc.constr;
  let s = State.create p in
  State.add_clause s sc.clause;
  Array.iteri
    (fun v (lo, hi) ->
       s.State.lb.(v) <- lo;
       s.State.ub.(v) <- hi)
    sc.cur;
  s

(* each trail entry: its atom, its level and its reason *)
let trail_of s =
  List.init (State.trail_length s) (fun i ->
      (State.trail_atom s i, State.trail_level s i, State.trail_reason s i))

type outcome =
  | Done of (atom * int * State.reason) list * int array * int array
  | Conflict of atom array
  | Raised of string

let outcome f sc =
  let s = build sc in
  match f s 0 with
  | () ->
    Done (trail_of s, Array.copy s.State.lb, Array.copy s.State.ub)
  | exception State.Conflict c -> Conflict c
  | exception e -> Raised (Printexc.to_string e)

let prop name kernel reference =
  QCheck.Test.make ~name ~count:10000 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let sc = gen_scenario seed in
      let got = outcome kernel sc and want = outcome reference sc in
      if got = want then true
      else
        QCheck.Test.fail_reportf "seed %d: constraint %a, clause %a" seed
          (pp_constr ()) sc.constr (pp_clause ()) sc.clause)

let () =
  Alcotest.run "propagate"
    [
      Qutil.qsuite "reference"
        [
          prop "check_clause = reference" Propagate.check_clause Ref.check_clause;
          prop "propagate_constr = reference" Propagate.propagate_constr
            Ref.propagate_constr;
        ];
    ]
