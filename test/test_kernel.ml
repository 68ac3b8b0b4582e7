(* The flat hybrid kernel (State, Propagate, Conflict) in lockstep with
   the frozen list kernel it replaced (State_ref, Propagate_ref,
   Conflict_ref).  Both run the same script: decisions, propagation,
   conflict analysis, learning with the asserting atom's reason,
   backtracking, restarts, clause-database reduction and problem
   growth.  After every step the two must agree on the bounds, the
   trail (atom, level and reason of every entry), the counters and
   the learned clauses, the reason arena must hold exactly the trail's
   reasons, and the clause arena exactly the live clauses.  Level-0
   simplification runs Hsimp against the frozen Hsimp_ref.  Seeded
   random scripts cover odd inputs (repeated variables in a linear
   term, non-canonical Boolean atoms in clauses, wide domains); the
   b13_1, b13_8 and b13_2 rows at bound 50 cover the encoder's real
   constraints under structural decisions. *)

open Rtlsat_constr.Types
module P = Rtlsat_constr.Problem
module E = Rtlsat_constr.Encode
module I = Rtlsat_interval.Interval
module Vec = Rtlsat_constr.Vec
module Heap = Rtlsat_sat.Heap
module State = Rtlsat_core.State
module Propagate = Rtlsat_core.Propagate
module Conflict = Rtlsat_core.Conflict
module Justify = Rtlsat_core.Justify
module Hsimp = Rtlsat_core.Hsimp
module State_ref = Frozen_kernel.State_ref
module Propagate_ref = Frozen_kernel.Propagate_ref
module Conflict_ref = Frozen_kernel.Conflict_ref
module Hsimp_ref = Frozen_kernel.Hsimp_ref

type pair = {
  name : string;
  a : State.t;          (* the flat kernel *)
  b : State_ref.t;      (* the frozen reference *)
  mutable checked : int;  (* trail prefix already compared *)
  mutable step : int;
}

let fail p fmt =
  Printf.ksprintf (fun m -> Alcotest.failf "%s, step %d: %s" p.name p.step m) fmt

let show_atoms a =
  String.concat " " (Array.to_list (Array.map (Format.asprintf "%a" (pp_atom ())) a))

let show_reason = function None -> "decision" | Some r -> show_atoms r

let entry_a s i = (State.trail_atom s i, State.trail_level s i, State.trail_reason s i)

let entry_b s i =
  let e = Vec.get s.State_ref.trail i in
  (e.State_ref.eatom, e.State_ref.elevel, e.State_ref.ereason)

let show_entry (atom, lvl, reason) =
  Format.asprintf "%a L%d <- %s" (pp_atom ()) atom lvl (show_reason reason)

(* the arena holds the trail's reasons and nothing else *)
let arena_top s =
  let n = State.trail_length s in
  if n = 0 then 0
  else s.State.tr_rpos.(n - 1) + max 0 s.State.tr_rlen.(n - 1)

(* the clause arena holds the live clauses and nothing else: their
   slots follow each other from 0 in index order, each a header and
   its atoms (a Pos/Neg atom one int, a Ge/Le atom two), and end at
   the top *)
let check_clause_arena p =
  let s = p.a in
  let top = ref 0 in
  for ci = 0 to s.State.n_clauses - 1 do
    let start = s.State.cl_start.(ci) in
    if start <> !top then fail p "clause %d starts at %d, not at %d" ci start !top;
    let width w = function Pos _ | Neg _ -> w + 1 | Ge _ | Le _ -> w + 2 in
    top := Array.fold_left width (start + 1) (State.clause s ci)
  done;
  if !top <> s.State.cl_top then
    fail p "the clauses end at %d, the arena's top is %d" !top s.State.cl_top

let compare_full p =
  let a = p.a and b = p.b in
  let n = a.State.nv in
  if n <> b.State_ref.nv then fail p "nv";
  for v = 0 to n - 1 do
    if a.State.activity.(v) <> b.State_ref.activity.(v) then fail p "activity of v%d" v;
    if a.State.phase.(v) <> b.State_ref.phase.(v) then fail p "phase of v%d" v
  done;
  let nc = a.State.n_clauses in
  if List.init nc (State.clause a) <> Vec.to_list b.State_ref.clauses then
    fail p "clause databases differ";
  if List.init nc (State.is_root_clause a) <> Vec.to_list b.State_ref.root_flags then
    fail p "root flags differ";
  check_clause_arena p;
  p.checked <- 0

(* the bounds, the trail entries above the compared prefix, the
   counters, and everything else every 64 steps *)
let compare_step p =
  let a = p.a and b = p.b in
  p.step <- p.step + 1;
  if p.step land 63 = 0 then compare_full p;
  if a.State.lb <> b.State_ref.lb || a.State.ub <> b.State_ref.ub then
    fail p "bounds differ";
  let n = State.trail_length a in
  if n <> Vec.length b.State_ref.trail then
    fail p "trail length %d vs %d" n (Vec.length b.State_ref.trail);
  for i = p.checked to n - 1 do
    let x = entry_a a i and y = entry_b b i in
    if x <> y then fail p "trail entry %d: %s vs %s" i (show_entry x) (show_entry y)
  done;
  p.checked <- n;
  if a.State.rs_len <> arena_top a then
    fail p "arena holds %d atoms, the trail's reasons end at %d" a.State.rs_len
      (arena_top a);
  let counters (s : State.t) =
    [ s.n_decisions; s.n_conflicts; s.n_propagations; s.n_learned; s.n_reductions;
      s.qhead; s.low_water; State.decision_level s; s.n_clauses;
      s.n_root_clauses; s.n_clean ]
  and counters_ref (s : State_ref.t) =
    [ s.n_decisions; s.n_conflicts; s.n_propagations; s.n_learned; s.n_reductions;
      s.qhead; s.low_water; State_ref.decision_level s; Vec.length s.clauses;
      s.n_root_clauses; s.n_clean ]
  in
  let ca = counters a and cb = counters_ref b in
  if ca <> cb then
    fail p
      "counters (decisions conflicts propagations learned reductions qhead \
       low_water level clauses roots clean) %s vs %s"
      (String.concat " " (List.map string_of_int ca))
      (String.concat " " (List.map string_of_int cb));
  if a.State.var_inc <> b.State_ref.var_inc then fail p "var_inc"

let backtrack p lvl =
  State.backtrack_to p.a lvl;
  State_ref.backtrack_to p.b lvl;
  p.checked <- min p.checked (State.trail_length p.a)

(* run [fa] on the kernel and [fb] on the reference: both return, or
   both raise State.Conflict with the same payload *)
let both p what fa fb =
  let ra = match fa () with x -> Ok x | exception State.Conflict c -> Error c in
  let rb = match fb () with x -> Ok x | exception State_ref.Conflict c -> Error c in
  match (ra, rb) with
  | Ok x, Ok y -> if x <> y then fail p "%s: results differ" what else Ok x
  | Error c, Error d ->
    if c <> d then fail p "%s: conflicts %s vs %s" what (show_atoms c) (show_atoms d)
    else Error c
  | Ok _, Error _ | Error _, Ok _ -> fail p "%s: only one kernel conflicts" what

let propagate ?full p =
  let ra = Propagate.run ?full p.a and rb = Propagate_ref.run ?full p.b in
  if ra <> rb then
    fail p "propagation: %s vs %s"
      (Option.fold ~none:"fixpoint" ~some:show_atoms ra)
      (Option.fold ~none:"fixpoint" ~some:show_atoms rb);
  compare_step p;
  ra

let decide p atom =
  p.a.State.n_decisions <- p.a.State.n_decisions + 1;
  p.b.State_ref.n_decisions <- p.b.State_ref.n_decisions + 1;
  State.new_level p.a;
  State_ref.new_level p.b;
  ignore
    (both p "decision"
       (fun () -> State.assert_atom p.a atom None)
       (fun () -> State_ref.assert_atom p.b atom None));
  compare_step p

(* the solver's conflict handling: analyze, backjump, learn, assert
   the learned clause's first atom (the kernel through the arena, the
   reference with the reason array its solver built).  [false]
   when the conflict is at the root *)
let rec learn p conflict =
  p.a.State.n_conflicts <- p.a.State.n_conflicts + 1;
  p.b.State_ref.n_conflicts <- p.b.State_ref.n_conflicts + 1;
  let ra = try Some (Conflict.analyze p.a conflict) with Conflict.Root_conflict -> None in
  let rb =
    try Some (Conflict_ref.analyze p.b conflict) with Conflict_ref.Root_conflict -> None
  in
  match (ra, rb) with
  | None, None -> compare_step p; false
  | Some x, Some y ->
    if x.Conflict.clause <> y.Conflict_ref.clause || x.Conflict.btlevel <> y.Conflict_ref.btlevel
    then
      fail p "learned %s at %d vs %s at %d" (show_atoms x.Conflict.clause) x.Conflict.btlevel
        (show_atoms y.Conflict_ref.clause) y.Conflict_ref.btlevel;
    let clause = x.Conflict.clause in
    backtrack p x.Conflict.btlevel;
    State.add_clause p.a clause;
    State_ref.add_clause p.b clause;
    p.a.State.n_learned <- p.a.State.n_learned + 1;
    p.b.State_ref.n_learned <- p.b.State_ref.n_learned + 1;
    State.decay_activities p.a;
    State_ref.decay_activities p.b;
    let uip = clause.(0) in
    let r =
      if State.entailed p.a uip then Ok ()
      else
        both p "asserting atom"
          (fun () -> State.assert_unit p.a (p.a.State.n_clauses - 1) 0)
          (fun () ->
             let reason =
               Array.of_list
                 (List.filter_map
                    (fun a -> if a == uip then None else Some (negate_atom a))
                    (Array.to_list clause))
             in
             State_ref.assert_atom p.b uip (Some reason))
    in
    compare_step p;
    (match r with
     | Ok () -> true
     | Error c -> State.decision_level p.a > 0 && learn p c)
  | _ -> fail p "only one kernel found a root conflict"

(* pop both split heaps (they must agree) and bisect like the solver *)
let split p =
  let ha = p.a.State.split_heap and hb = p.b.State_ref.split_heap in
  if Heap.size ha <> Heap.size hb then fail p "split heaps differ";
  let rec pop () =
    if Heap.is_empty ha then None
    else begin
      let v = Heap.pop ha p.a.State.activity in
      if v <> Heap.pop hb p.b.State_ref.activity then fail p "split candidates differ";
      if p.a.State.lb.(v) < p.a.State.ub.(v) then Some v else pop ()
    end
  in
  let r = pop () in
  Heap.clear ha;
  Heap.clear hb;
  match r with
  | None -> ()
  | Some v ->
    let lo = p.a.State.lb.(v) and hi = p.a.State.ub.(v) in
    let mid = lo + ((hi - lo) / 2) in
    decide p
      (if p.a.State.split_dir.(v) then State.canonical p.a (Ge (v, mid + 1))
       else State.canonical p.a (Le (v, mid)))

let suspended p = p.a.State.qhead < State.trail_length p.a

let reduce p ~keep_recent =
  State.reduce_clauses p.a ~keep_recent;
  State_ref.reduce_clauses p.b ~keep_recent;
  check_clause_arena p;
  compare_step p

(* a level-0 simplification pass: the same statistics and database.
   The reference keeps no clean prefix, so it takes the kernel's *)
let simplified = ref 0

let simplify p =
  let sa = Hsimp.run p.a and sb = Hsimp_ref.run p.b in
  simplified := !simplified + sa.Hsimp.subsumed + sa.Hsimp.strengthened;
  if sa.Hsimp.subsumed <> sb.Hsimp_ref.subsumed
     || sa.Hsimp.strengthened <> sb.Hsimp_ref.strengthened
  then fail p "simplification statistics differ";
  p.b.State_ref.n_clean <- p.a.State.n_clean;
  compare_full p;
  compare_step p

let make name prob ~split =
  let a = State.create prob and b = State_ref.create prob in
  a.State.split <- split;
  b.State_ref.split <- split;
  { name; a; b; checked = 0; step = 0 }

(* ---- seeded random scripts ----

   Problems are built around a hidden model, so most are satisfiable
   at the root and the search goes deep enough to conflict: every
   constraint holds at the model, and most clauses lead with an atom
   it satisfies. *)

type gen = { r : Random.State.t; prob : P.t; mutable model : int array }

let gen_domain r =
  match Random.State.int r 8 with
  | 0 -> (0, 1 lsl 20)
  | 1 | 2 -> (-4, 4)
  | 3 | 4 -> (0, 3)
  | _ -> (0, 7)

let add_vars g ~bools ~words =
  let value lo hi = lo + Random.State.int g.r (hi - lo + 1) in
  let fresh = ref [] in
  for _ = 1 to bools do
    ignore (P.new_bool g.prob ());
    fresh := value 0 1 :: !fresh
  done;
  for _ = 1 to words do
    let lo, hi = gen_domain g.r in
    ignore (P.new_word g.prob (I.make lo hi));
    fresh := value lo hi :: !fresh
  done;
  g.model <- Array.append g.model (Array.of_list (List.rev !fresh))

let vars_of prob = List.init (P.n_vars prob) Fun.id
let bools_of prob = List.filter (P.is_bool_var prob) (vars_of prob)
let words_of prob = List.filter (fun v -> not (P.is_bool_var prob v)) (vars_of prob)
let pick r l = List.nth l (Random.State.int r (List.length l))

let threshold r prob v =
  let d = P.initial_domain prob v in
  I.lo d - 1 + Random.State.int r (I.hi d - I.lo d + 3)

(* clause atoms, Boolean ones sometimes in their non-canonical bound
   form, whose constructor the reasons must keep *)
let gen_atom g =
  let r = g.r and prob = g.prob in
  let bools = bools_of prob and words = words_of prob in
  match Random.State.int r 10 with
  | 0 -> Ge (pick r bools, 1)
  | 1 -> Le (pick r bools, 0)
  | 2 | 3 | 4 -> let v = pick r words in Ge (v, threshold r prob v)
  | 5 | 6 -> let v = pick r words in Le (v, threshold r prob v)
  | 7 | 8 -> Pos (pick r bools)
  | _ -> Neg (pick r bools)

let gen_clause g =
  let c = Array.init (1 + Random.State.int g.r 4) (fun _ -> gen_atom g) in
  if Random.State.int g.r 4 > 0 then begin
    (* lead with an atom the model satisfies *)
    let v = atom_var c.(0) and x = g.model.(atom_var c.(0)) in
    c.(0) <-
      (match c.(0) with
       | Pos _ | Neg _ -> if x = 1 then Pos v else Neg v
       | Ge _ -> Ge (v, x)
       | Le _ -> Le (v, x))
  end;
  c

(* raw terms, so a variable may repeat, sometimes with opposite signs;
   the constant puts the model [slack] below zero *)
let gen_linexpr g ~slack =
  let words = words_of g.prob in
  let terms =
    List.init (1 + Random.State.int g.r 4) (fun _ ->
        let c = 1 + Random.State.int g.r 3 in
        ((if Random.State.bool g.r then c else -c), pick g.r words))
  in
  let value = List.fold_left (fun acc (c, v) -> acc + (c * g.model.(v))) 0 terms in
  { terms; const = -value - slack }

let gen_constr g =
  let r = g.r in
  match Random.State.int r 4 with
  | 0 -> Lin_le (gen_linexpr g ~slack:(Random.State.int r 3))
  | 1 -> Lin_eq (gen_linexpr g ~slack:0)
  | 2 ->
    let b = pick r (bools_of g.prob) in
    let slack = if g.model.(b) = 1 then Random.State.int r 3 else -1 - Random.State.int r 3 in
    Pred { b; e = gen_linexpr g ~slack }
  | _ ->
    let words = words_of g.prob in
    let sel = pick r (bools_of g.prob) and t = pick r words and e = pick r words in
    let z = if g.model.(sel) = 1 then t else e in
    (* z a copy of the selected arm, or an unrelated word *)
    let z = if Random.State.bool r then z else pick r words in
    Mux_w { sel; t; e; z }

let gen_problem r =
  let g = { r; prob = P.create (); model = [||] } in
  add_vars g ~bools:(2 + Random.State.int r 5) ~words:(2 + Random.State.int r 4);
  for _ = 1 to 3 + Random.State.int r 6 do P.add_constr g.prob (gen_constr g) done;
  for _ = 1 to Random.State.int r 10 do P.add_clause g.prob (gen_clause g) done;
  g

(* a random decision: a free Boolean, or a bound inside a word's domain *)
let random_decision r p =
  let s = p.a in
  let free =
    List.filter (fun v -> s.State.lb.(v) < s.State.ub.(v)) (vars_of s.State.prob)
  in
  if free = [] then None
  else begin
    let v = pick r free in
    let lo = s.State.lb.(v) and hi = s.State.ub.(v) in
    if P.is_bool_var s.State.prob v then
      Some (if Random.State.bool r then Pos v else Neg v)
    else begin
      let k = lo + Random.State.int r (hi - lo) in
      Some (if Random.State.bool r then Ge (v, k + 1) else Le (v, k))
    end
  end

let grow g p =
  let r = g.r in
  backtrack p 0;
  add_vars g ~bools:(Random.State.int r 2) ~words:(Random.State.int r 2);
  if Random.State.bool r then P.add_constr g.prob (gen_constr g);
  for _ = 1 to Random.State.int r 3 do P.add_clause g.prob (gen_clause g) done;
  State.grow p.a;
  State_ref.grow p.b;
  compare_full p;
  compare_step p;
  (* the new constraints and clauses have produced no events *)
  propagate ~full:true p = None

let run_script seed =
  let r = Random.State.make [| seed |] in
  let g = gen_problem r in
  let p = make (Printf.sprintf "seed %d" seed) g.prob ~split:(Random.State.int r 4 = 0) in
  let rec loop n ~full =
    if n > 0 then begin
      match propagate ~full p with
      | Some c ->
        if State.decision_level p.a > 0 && learn p c then loop (n - 1) ~full:false
      | None when suspended p && not (Heap.is_empty p.a.State.split_heap) ->
        split p;
        loop (n - 1) ~full:false
      | None ->
        (match Random.State.int r 20 with
         | 0 | 1 when State.decision_level p.a > 0 ->
           backtrack p (Random.State.int r (State.decision_level p.a));
           compare_step p;
           loop (n - 1) ~full:false
         | 2 ->
           backtrack p 0;
           reduce p ~keep_recent:(Random.State.int r 3);
           loop (n - 1) ~full:false
         | 3 ->
           reduce p ~keep_recent:(Random.State.int r 3);
           loop (n - 1) ~full:false
         | 4 -> if grow g p then loop (n - 1) ~full:false
         | 5 ->
           (* an entailed atom with a reason: a no-op that must drop
              the reason it wrote *)
           let v = Random.State.int r p.a.State.nv in
           let atom =
             if not (P.is_bool_var g.prob v) then Some (Ge (v, p.a.State.lb.(v)))
             else if State.bool_value p.a v = 1 then Some (Pos v)
             else if State.bool_value p.a v = 0 then Some (Neg v)
             else None
           in
           let reason = Some [| gen_atom g |] in
           Option.iter
             (fun atom ->
                ignore
                  (both p "entailed atom"
                     (fun () -> State.assert_atom p.a atom reason)
                     (fun () -> State_ref.assert_atom p.b atom reason)))
             atom;
           compare_step p;
           loop (n - 1) ~full:false
         | _ ->
           (match random_decision r p with
            | Some atom -> decide p atom
            | None ->
              (* a model: restart from the root, and simplify there *)
              backtrack p 0;
              compare_step p;
              simplify p);
           loop (n - 1) ~full:false)
    end
  in
  loop 150 ~full:true;
  compare_full p;
  p.a

(* the scripts, seeded, must reach conflicts and reductions often *)
let test_scripts () =
  let conflicts = ref 0 and reductions = ref 0 in
  simplified := 0;
  for seed = 1 to 400 do
    let s = run_script seed in
    conflicts := !conflicts + s.State.n_conflicts;
    reductions := !reductions + s.State.n_reductions
  done;
  Printf.printf "%d conflicts, %d reductions, %d clauses or atoms simplified away\n"
    !conflicts !reductions !simplified;
  if !conflicts < 500 || !reductions < 500 || !simplified < 100 then
    Alcotest.fail "the scripts no longer exercise analysis, reduction, simplification"

(* ---- the b13 rows: structural decisions, then activity ---- *)

let run_row circuit prop =
  let inst = Rtlsat_itc99.Registry.instance ~circuit ~prop ~bound:50 in
  let enc = E.encode (Rtlsat_bmc.Unroll.combo inst.Rtlsat_bmc.Bmc.unrolled) in
  E.assume_bool enc inst.Rtlsat_bmc.Bmc.violation true;
  let p = make (Printf.sprintf "b13_%s(50)" prop) enc.E.problem ~split:true in
  let j = Justify.create enc in
  let conflicts = ref 0 in
  let rec next () =
    (* the justifier moves the kernel's low-water mark *)
    let decided = Justify.decide j p.a in
    p.b.State_ref.low_water <- p.a.State.low_water;
    match decided with
    | Some atom -> `Decide atom
    | None ->
      (* the activity heuristic, popping both heaps in step *)
      let ha = p.a.State.heap and hb = p.b.State_ref.heap in
      if Heap.is_empty ha then `Done
      else begin
        let v = Heap.pop ha p.a.State.activity in
        if Heap.pop hb p.b.State_ref.activity <> v then fail p "decision heaps differ";
        if State.bool_value p.a v <> -1 then next ()
        else `Decide (if p.a.State.phase.(v) then Pos v else Neg v)
      end
    | exception Justify.Jconflict atoms -> `Conflict atoms
  in
  let rec loop ~full =
    if !conflicts < 300 then begin
      let on_conflict c =
        incr conflicts;
        if State.decision_level p.a > 0 && learn p c then begin
          if !conflicts mod 50 = 0 then begin
            backtrack p 0;
            reduce p ~keep_recent:100;
            simplify p
          end;
          loop ~full:false
        end
      in
      match propagate ~full p with
      | Some c -> on_conflict c
      | None when suspended p && not (Heap.is_empty p.a.State.split_heap) ->
        split p;
        loop ~full:false
      | None when suspended p -> loop ~full:false
      | None ->
        (match next () with
         | `Decide atom ->
           decide p atom;
           loop ~full:false
         | `Conflict atoms -> on_conflict atoms
         | `Done -> ())
    end
  in
  loop ~full:true;
  compare_full p;
  if p.a.State.n_conflicts = 0 then fail p "no conflict exercised";
  (p.a, enc.E.problem)

let test_row circuit prop () = ignore (run_row circuit prop)

(* The kernel's footprint after the b13_2(50) script, in words: what
   the state reaches beyond its problem.  Unlike a process's peak RSS,
   which moves with GC pacing, the count is deterministic, so a layout
   change that grows the kernel shows here and must update the pin.
   The kernel with boxed clauses (an atom-array vector sharing the
   problem's clauses, with a root-flag vector beside it) reached
   341_898 words on the same script; the clause arena may cost at most
   5% over that. *)
let footprint_pin = 354_657
let footprint_boxed = 341_898

let test_footprint () =
  let s, prob = run_row "b13" "2" in
  let words = Obj.reachable_words (Obj.repr s) - Obj.reachable_words (Obj.repr prob) in
  Alcotest.(check int) "b13_2(50) kernel footprint, words" footprint_pin words;
  if 100 * footprint_pin > 105 * footprint_boxed then
    Alcotest.failf "the footprint %d is more than 5%% over the boxed kernel's %d"
      footprint_pin footprint_boxed

let () =
  Alcotest.run "kernel"
    [
      ( "lockstep",
        [
          Alcotest.test_case "400 seeded scripts" `Quick test_scripts;
          Alcotest.test_case "b13_1(50)" `Quick (test_row "b13" "1");
          Alcotest.test_case "b13_8(50)" `Quick (test_row "b13" "8");
          Alcotest.test_case "b13_2(50), footprint" `Quick test_footprint;
        ] );
    ]
