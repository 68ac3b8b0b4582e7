(* End-to-end tests for the HDPLL core: kernel behaviour, propagation,
   conflict analysis, the four engine configurations, justification
   and predicate learning — validated against brute-force simulation
   of the RTL. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Sim = Rtlsat_rtl.Sim
module T = Rtlsat_constr.Types
module P = Rtlsat_constr.Problem
module E = Rtlsat_constr.Encode
module I = Rtlsat_interval.Interval
module State = Rtlsat_core.State
module Propagate = Rtlsat_core.Propagate
module Solver = Rtlsat_core.Solver
module PL = Rtlsat_core.Predicate_learning
module Justify = Rtlsat_core.Justify

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let configs =
  [
    ("hdpll", Solver.hdpll);
    ("hdpll+s", Solver.hdpll_s);
    ("hdpll+p", Solver.hdpll_p);
    ("hdpll+s+p", Solver.hdpll_sp);
  ]

(* ---- kernel ---- *)

let test_state_bounds () =
  let p = P.create () in
  let w = P.new_word p (I.make 0 15) in
  let s = State.create p in
  check_bool "entailed init" true (State.entailed s (T.Ge (w, 0)));
  check_bool "not entailed" false (State.entailed s (T.Ge (w, 3)));
  State.new_level s;
  State.assert_atom s (T.Ge (w, 3)) None;
  check_bool "entailed after" true (State.entailed s (T.Ge (w, 3)));
  check_bool "weaker entailed" true (State.entailed s (T.Ge (w, 2)));
  check_bool "falsified" true (State.falsified s (T.Le (w, 2)));
  State.backtrack_to s 0;
  check_bool "restored" false (State.entailed s (T.Ge (w, 3)))

let test_state_conflict_on_empty () =
  let p = P.create () in
  let w = P.new_word p (I.make 0 15) in
  let s = State.create p in
  State.new_level s;
  State.assert_atom s (T.Le (w, 4)) None;
  match State.assert_atom s (T.Ge (w, 5)) (Some [| T.Pos 99 |]) with
  | exception State.Conflict atoms ->
    check_bool "opposing atom present" true (Array.mem (T.Le (w, 4)) atoms)
  | () -> Alcotest.fail "expected conflict"

let test_entailing_entry () =
  let p = P.create () in
  let w = P.new_word p (I.make 0 15) in
  let s = State.create p in
  State.new_level s;
  State.assert_atom s (T.Ge (w, 3)) None;
  State.new_level s;
  State.assert_atom s (T.Ge (w, 7)) None;
  check_int "root bound has no entry" (-1) (State.entailing_entry s (T.Ge (w, 0)));
  (* Ge(w,2) was first entailed by the Ge(w,3) event (trail idx 0) *)
  check_int "first event" 0 (State.entailing_entry s (T.Ge (w, 2)));
  check_int "second event" 1 (State.entailing_entry s (T.Ge (w, 6)));
  check_bool "trail atoms" true
    (State.trail_atom s 0 = T.Ge (w, 3) && State.trail_atom s 1 = T.Ge (w, 7));
  check_bool "trail levels and decisions" true
    (State.trail_level s 0 = 1 && State.trail_level s 1 = 2
     && State.trail_is_decision s 0 && State.trail_reason s 1 = None)

(* [State.entailing_entry] against a naive scan of the trail: the
   oldest entry on the atom's variable and side whose bound entails it
   (bounds only tighten along the trail), -1 when the initial domain
   does.  Random scripts of decisions (equal and repeated bounds
   included, which are no-ops), backtracks and problem growth. *)
let naive_entailing s a =
  let v = T.atom_var a in
  let lower, k =
    match a with
    | T.Pos _ -> (true, 1)
    | T.Ge (_, k) -> (true, k)
    | T.Neg _ -> (false, 0)
    | T.Le (_, k) -> (false, k)
  in
  if (lower && s.State.init_lb.(v) >= k) || ((not lower) && s.State.init_ub.(v) <= k)
  then -1
  else begin
    let rec find i =
      if i >= State.trail_length s then -1
      else if
        State.trail_var s i = v
        && State.trail_lower s i = lower
        && (if lower then State.trail_bound s i >= k else State.trail_bound s i <= k)
      then i
      else find (i + 1)
    in
    find 0
  end

let prop_entailing_entry =
  QCheck.Test.make ~name:"entailing entry = naive trail scan" ~count:300
    (QCheck.int_bound 1_000_000) (fun seed ->
      let r = Random.State.make [| seed |] in
      let p = P.create () in
      let add_var () =
        if Random.State.bool r then ignore (P.new_bool p ())
        else ignore (P.new_word p (I.make (-2) (Random.State.int r 6)))
      in
      for _ = 1 to 1 + Random.State.int r 4 do add_var () done;
      let s = State.create p in
      let atom v =
        if P.is_bool_var p v then (if Random.State.bool r then T.Pos v else T.Neg v)
        else
          let k = Random.State.int r 10 - 3 in
          if Random.State.bool r then T.Ge (v, k) else T.Le (v, k)
      in
      let agree () =
        List.for_all
          (fun v ->
             List.for_all
               (fun _ ->
                  let a = atom v in
                  (not (State.entailed s a)) || State.entailing_entry s a = naive_entailing s a)
               [ 1; 2; 3; 4 ])
          (List.init s.State.nv Fun.id)
      in
      let ok = ref true in
      for _ = 1 to 60 do
        (match Random.State.int r 8 with
         | 0 when State.decision_level s > 0 ->
           State.backtrack_to s (Random.State.int r (State.decision_level s))
         | 1 ->
           State.backtrack_to s 0;
           add_var ();
           State.grow s
         | _ ->
           if Random.State.bool r then State.new_level s;
           let v = Random.State.int r s.State.nv in
           (* the current bound again, or a random one *)
           let a =
             if Random.State.int r 3 = 0 && not (P.is_bool_var p v) then
               T.Ge (v, s.State.lb.(v))
             else atom v
           in
           (try State.assert_atom s a None with State.Conflict _ -> ()));
        if not (agree ()) then ok := false
      done;
      !ok)

(* ---- conflict analysis on hand-built trails ---- *)

module Conflict = Rtlsat_core.Conflict

(* b <-> (w <= 5); decide b; a conflicting unit [w >= 9] must learn a
   clause whose literal is the *generalized* bound [w >= 9] (from the
   needed atom [w <= 8]) rather than the stronger event [w <= 5] *)
let test_analyze_generalizes_bounds () =
  let p = P.create () in
  let b = P.new_bool p ~name:"b" () in
  let w = P.new_word p ~name:"w" (I.make 0 15) in
  P.add_constr p (T.Pred { b; e = T.lin_of_terms [ (1, w) ] (-5) });
  let s = State.create p in
  State.new_level s;
  State.assert_atom s (T.Pos b) None;
  (match Propagate.run s with None -> () | Some _ -> Alcotest.fail "conflict");
  check_int "w narrowed" 5 s.State.ub.(w);
  (* the falsified unit clause (w >= 9) yields conflict atoms (w <= 8) *)
  let { Conflict.clause; btlevel } = Conflict.analyze s [| T.Le (w, 8) |] in
  Alcotest.(check int) "btlevel" 0 btlevel;
  check_bool "clause is the generalized bound" true (clause = [| T.Ge (w, 9) |])

(* resolution across reasons terminates at the decision (UIP) *)
let test_analyze_resolves_to_decision () =
  let p = P.create () in
  let b = P.new_bool p ~name:"b" () in
  let w = P.new_word p ~name:"w" (I.make 0 15) in
  P.add_constr p (T.Pred { b; e = T.lin_of_terms [ (1, w) ] (-5) });
  let s = State.create p in
  State.new_level s;
  State.assert_atom s (T.Pos b) None;
  (match Propagate.run s with None -> () | Some _ -> Alcotest.fail "conflict");
  State.assert_atom s (T.Ge (w, 3)) (Some [| T.Pos b |]);
  let { Conflict.clause; btlevel } =
    Conflict.analyze s [| T.Le (w, 5); T.Ge (w, 3) |]
  in
  Alcotest.(check int) "btlevel" 0 btlevel;
  check_bool "resolved to the decision" true (clause = [| T.Neg b |])

let test_analyze_root_conflict () =
  let p = P.create () in
  let w = P.new_word p ~name:"w" (I.make 0 15) in
  P.add_clause p [| T.Le (w, 4) |];
  let s = State.create p in
  (match Propagate.run ~full:true s with None -> () | Some _ -> Alcotest.fail "early");
  match Conflict.analyze s [| T.Le (w, 4) |] with
  | exception Conflict.Root_conflict -> ()
  | _ -> Alcotest.fail "expected Root_conflict"

let test_reduce_clause_db () =
  let p = P.create () in
  let w = P.new_word p ~name:"w" (I.make 0 15) in
  let b = P.new_bool p () in
  P.add_clause p [| T.Pos b; T.Ge (w, 1) |];
  let s = State.create p in
  let roots = s.State.n_clauses in
  (* add long "learned" clauses and one short one *)
  for i = 0 to 9 do
    State.add_clause s
      [| T.Ge (w, 1 + (i mod 3)); T.Le (w, 14); T.Pos b; T.Neg b; T.Ge (w, 2) |]
  done;
  State.add_clause s [| T.Pos b; T.Le (w, 9) |];
  State.reduce_clauses s ~keep_recent:2;
  let total = s.State.n_clauses in
  (* roots + 2 recent + the binary survivor *)
  check_bool "reduced" true (total < roots + 11);
  check_bool "kept roots" true (total >= roots + 2);
  check_int "counted" 1 s.State.n_reductions

(* ---- propagation through an encoded circuit ---- *)

let test_icp_comparator () =
  (* b = (x < z) with x,z ∈ <0,15>; assert b: x ∈ <0,14>, z ∈ <1,15> —
     the paper's Equations (2)-(3) *)
  let c = N.create "lt" in
  let x = N.input c ~name:"x" 4 in
  let z = N.input c ~name:"z" 4 in
  let b = N.lt c x z in
  N.output c "b" b;
  let enc = E.encode c in
  E.assume_bool enc b true;
  let s = State.create enc.E.problem in
  (match Propagate.run ~full:true s with
   | Some _ -> Alcotest.fail "unexpected conflict"
   | None -> ());
  let xv = E.var enc x and zv = E.var enc z in
  check_int "x ub" 14 s.State.ub.(xv);
  check_int "z lb" 1 s.State.lb.(zv)

let test_icp_mux_hull_and_select () =
  let c = N.create "mux" in
  let sel = N.input c ~name:"sel" 1 in
  let a = N.input c ~name:"a" 3 in
  let z = N.mux c ~sel ~t:(N.const c ~width:3 6) ~e:a () in
  N.output c "z" z;
  let enc = E.encode c in
  (* force z <= 4: disjoint from the constant branch => sel = 0 *)
  E.assume_interval enc z (I.make 0 4);
  let s = State.create enc.E.problem in
  (match Propagate.run ~full:true s with
   | Some _ -> Alcotest.fail "unexpected conflict"
   | None -> ());
  check_int "sel implied 0" 0 (State.bool_value s (E.var enc sel));
  check_int "a narrowed" 4 s.State.ub.(E.var enc a)

(* ---- solving: model validation helpers ---- *)

let model_agrees_with_sim circuit (enc : E.t) model =
  (* replay the model's primary-input values through the simulator and
     compare every node *)
  let inputs =
    List.map (fun n -> (n, model.(E.var enc n))) (Ir.inputs circuit)
  in
  let vals = Sim.eval circuit (Sim.initial_state circuit) ~inputs in
  List.for_all
    (fun n -> Sim.value vals n = model.(E.var enc n))
    (Ir.nodes circuit)

let build_combo () =
  let c = N.create "combo" in
  let a = N.input c ~name:"a" 4 in
  let b = N.input c ~name:"b" 4 in
  let gtb = N.gt c a b in
  let s = N.add c a b in
  let d = N.sub c a b in
  let z = N.mux c ~sel:gtb ~t:s ~e:d () in
  N.output c "z" z;
  (c, a, b, z)

let test_solve_sat_all_configs () =
  List.iter
    (fun (name, options) ->
       let c, _, _, z = build_combo () in
       let enc = E.encode c in
       (* z = 9 with a > b: e.g. a=5,b=4 -> 9 *)
       E.assume_interval enc z (I.point 9) ;
       let { Solver.result; _ } = Solver.solve ~options enc in
       match result with
       | Solver.Sat m ->
         check_bool (name ^ " model validates") true
           (Result.is_ok (P.check_model enc.E.problem (fun v -> m.(v))));
         check_bool (name ^ " sim agrees") true (model_agrees_with_sim c enc m)
       | _ -> Alcotest.failf "%s: expected sat" name)
    configs

let test_solve_unsat_all_configs () =
  List.iter
    (fun (name, options) ->
       let c = N.create "unsat" in
       let a = N.input c ~name:"a" 4 in
       let b = N.input c ~name:"b" 4 in
       let lt = N.lt c a b in
       let gt = N.gt c a b in
       let both = N.and_ c [ lt; gt ] in
       N.output c "both" both;
       let enc = E.encode c in
       E.assume_bool enc both true;
       let { Solver.result; _ } = Solver.solve ~options enc in
       check_bool (name ^ " unsat") true (result = Solver.Unsat))
    configs

let test_solve_word_unsat () =
  (* x + 1 <= x over a non-wrapping adder is unsatisfiable *)
  List.iter
    (fun (name, options) ->
       let c = N.create "word_unsat" in
       let x = N.input c ~name:"x" 4 in
       let one = N.const c ~width:4 1 in
       let s = N.add_ext c x one in
       let p = N.le c s (N.zext c x ~width:5) in
       N.output c "p" p;
       let enc = E.encode c in
       E.assume_bool enc p true;
       let { Solver.result; _ } = Solver.solve ~options enc in
       check_bool (name ^ " unsat") true (result = Solver.Unsat))
    configs

let test_wrap_add_sat () =
  (* wrap-around: x + 1 = 0 has the solution x = 15 *)
  let c = N.create "wrap" in
  let x = N.input c ~name:"x" 4 in
  let s = N.inc c x in
  let p = N.eq_const c s 0 in
  N.output c "p" p;
  let enc = E.encode c in
  E.assume_bool enc p true;
  let { Solver.result; _ } = Solver.solve enc in
  match result with
  | Solver.Sat m -> check_int "x = 15" 15 m.(E.var enc x)
  | _ -> Alcotest.fail "expected sat"

(* an early (root) exit builds its outcome like the main loop does:
   nothing was decided or conflicted, and under [collect_learned] the
   collected clauses are exactly the learned ones *)
let check_root_exit name (o : Solver.outcome) =
  check_int (name ^ " decisions") 0 o.Solver.stats.Solver.decisions;
  check_int (name ^ " conflicts") 0 o.Solver.stats.Solver.conflicts;
  check_int (name ^ " collected = learned") o.Solver.stats.Solver.learned
    (List.length o.Solver.learned_clauses)

let test_timeout () =
  let c, _, _, _ = build_combo () in
  let enc = E.encode c in
  let options = { Solver.default with Solver.deadline = Unix.gettimeofday () -. 1.0 } in
  let { Solver.result; _ } = Solver.solve ~options enc in
  (* tiny instances may finish before the first deadline poll *)
  check_bool "timeout or solved" true
    (match result with Solver.Timeout | Solver.Sat _ -> true | Solver.Unsat -> false);
  (* y = x + 1 and y <= x - 1 over 16-bit words: with splits off, root
     propagation crawls one unit per sweep and reaches the deadline
     poll long before the fixpoint, so the passed deadline is a
     Timeout at the root *)
  let p = P.create () in
  let x = P.new_word p ~name:"x" (I.make 0 65535) in
  let y = P.new_word p ~name:"y" (I.make 0 65535) in
  P.add_constr p (T.Lin_eq (T.lin_of_terms [ (1, x); (-1, y) ] 1));
  P.add_constr p (T.Lin_le (T.lin_of_terms [ (1, y); (-1, x) ] 1));
  let o =
    Solver.solve_problem
      ~options:
        { Solver.default with
          Solver.deadline = Rtlsat_obs.Mono.now () -. 1.0;
          split = false;
          collect_learned = true }
      p
  in
  check_bool "root timeout" true (o.Solver.result = Solver.Timeout);
  check_root_exit "root timeout" o;
  check_int "root timeout learned" 0 o.Solver.stats.Solver.learned

(* ---- Figure 4: structural decision making ---- *)

let build_fig4 () =
  (* w4 = mux(b1, w2, w3); w3 = mux(b2, w2', w1); proposition w4 = 5
     with w2 ranges disjoint from 5 so justification must steer to w1 *)
  let c = N.create "fig4" in
  let w1 = N.input c ~name:"w1" 3 in
  let w2 = N.input c ~name:"w2" 3 in
  let b1 = N.input c ~name:"b1" 1 in
  let b2 = N.input c ~name:"b2" 1 in
  let w6 = N.const c ~width:3 6 in
  let w3 = N.mux c ~name:"w3" ~sel:b2 ~t:w6 ~e:w1 () in
  let w4 = N.mux c ~name:"w4" ~sel:b1 ~t:w2 ~e:w3 () in
  let prop = N.eq_const c w4 5 in
  N.output c "prop" prop;
  (c, w1, w2, b1, b2, w4, prop)

let test_fig4_justification () =
  let c, w1, w2, b1, b2, w4, prop = build_fig4 () in
  let enc = E.encode c in
  E.assume_bool enc prop true;
  E.assume_interval enc w2 (I.make 6 7);
  let { Solver.result; stats; _ } = Solver.solve ~options:Solver.hdpll_s enc in
  match result with
  | Solver.Sat m ->
    check_int "w4 = 5" 5 m.(E.var enc w4);
    check_int "b1 = 0 (w2 disjoint)" 0 m.(E.var enc b1);
    check_int "b2 = 0 (const 6 disjoint)" 0 m.(E.var enc b2);
    check_int "w1 = 5" 5 m.(E.var enc w1);
    check_bool "few decisions" true (stats.Solver.decisions <= 4)
  | _ -> Alcotest.fail "expected sat"

let test_jconflict_direct () =
  (* a mux whose required output interval misses both inputs is a
     structural conflict (§4.3); drive Justify.decide on a hand-built
     state where propagation has not yet looked at the mux *)
  let c = N.create "jc" in
  let sel = N.input c ~name:"sel" 1 in
  let t = N.input c ~name:"t" 3 in
  let e = N.input c ~name:"e" 3 in
  let z = N.mux c ~name:"z" ~sel ~t ~e () in
  N.output c "z" z;
  let enc = E.encode c in
  let s = State.create enc.E.problem in
  let j = Justify.create enc in
  State.new_level s;
  (* narrow the three words by hand, skipping propagation *)
  State.assert_atom s (T.Le (E.var enc z, 2)) None;
  State.assert_atom s (T.Ge (E.var enc t, 4)) None;
  State.assert_atom s (T.Ge (E.var enc e, 5)) None;
  (match Justify.decide j s with
   | exception Justify.Jconflict atoms ->
     check_bool "carries implying atoms" true (Array.length atoms >= 3);
     check_bool "all entailed" true (Array.for_all (State.entailed s) atoms)
   | _ -> Alcotest.fail "expected J-conflict")

let test_justify_candidates () =
  let c, _, _, _, _, _, _ = build_fig4 () in
  let enc = E.encode c in
  let j = Justify.create enc in
  (* two word muxes are justification candidates *)
  check_int "candidates" 2 (Justify.n_candidates j)

(* ---- Figure 1: recursive learning ---- *)

let test_fig1_recursive_learning () =
  (* e = c | d, c = a & b, d = a & b: learning must find e=1 -> a=1, b=1.
     A mux keeps e in the predicate cone. *)
  let c = N.create "fig1" in
  let a = N.input c ~name:"a" 1 in
  let b = N.input c ~name:"b" 1 in
  let g_c = N.and_ c ~name:"c" [ a; b ] in
  let g_d = N.and_ c ~name:"d" [ b; a ] in
  let e = N.or_ c ~name:"e" [ g_c; g_d ] in
  let w = N.input c ~name:"w" 3 in
  let z = N.mux c ~sel:e ~t:w ~e:(N.const c ~width:3 0) () in
  N.output c "z" z;
  let enc = E.encode c in
  let s = State.create enc.E.problem in
  (match Propagate.run ~full:true s with
   | None -> ()
   | Some _ -> Alcotest.fail "root conflict");
  let sm = PL.run s enc in
  check_bool "learned some relations" true (sm.PL.relations > 0);
  (* after learning, asserting e=1 must imply a=1 and b=1 by unit
     propagation over the learned clauses *)
  State.new_level s;
  State.assert_atom s (T.Pos (E.var enc e)) None;
  (match Propagate.run s with
   | Some _ -> Alcotest.fail "conflict"
   | None -> ());
  check_int "a implied" 1 (State.bool_value s (E.var enc a));
  check_int "b implied" 1 (State.bool_value s (E.var enc b))

let test_learning_threshold () =
  let c = N.create "thresh" in
  let a = N.input c ~name:"a" 1 and b = N.input c ~name:"b" 1 in
  let g1 = N.and_ c [ a; b ] in
  let g2 = N.or_ c [ a; b ] in
  let g3 = N.and_ c [ g1; g2 ] in
  let w = N.input c 3 in
  let z = N.mux c ~sel:g3 ~t:w ~e:(N.const c ~width:3 1) () in
  N.output c "z" z;
  let enc = E.encode c in
  let s = State.create enc.E.problem in
  (match Propagate.run ~full:true s with None -> () | Some _ -> Alcotest.fail "conflict");
  let sm = PL.run ~threshold:1 s enc in
  check_bool "capped" true (sm.PL.relations <= 1)

(* ---- additional solver API behaviours ---- *)

let test_learning_depth_2 () =
  (* depth-2 recursion digs one gate deeper than the paper's level 1:
     e = c | d, c = a & b, d = b & a, and a itself is g1 & g2: probing
     e=1 at depth 2 also discovers e=1 -> g1=1 *)
  let c = N.create "deep" in
  let g1 = N.input c ~name:"g1" 1 in
  let g2 = N.input c ~name:"g2" 1 in
  let a = N.and_ c ~name:"a" [ g1; g2 ] in
  let b = N.input c ~name:"b" 1 in
  let gc = N.and_ c ~name:"c" [ a; b ] in
  let gd = N.and_ c ~name:"d" [ b; a ] in
  let e = N.or_ c ~name:"e" [ gc; gd ] in
  let w = N.input c ~name:"w" 3 in
  let z = N.mux c ~sel:e ~t:w ~e:(N.const c ~width:3 0) () in
  N.output c "z" z;
  let enc = E.encode c in
  let s = State.create enc.E.problem in
  (match Propagate.run ~full:true s with None -> () | Some _ -> Alcotest.fail "conflict");
  let sm = PL.run ~threshold:100 ~depth:2 s enc in
  check_bool "learned" true (sm.PL.relations > 0);
  State.new_level s;
  State.assert_atom s (T.Pos (E.var enc e)) None;
  (match Propagate.run s with Some _ -> Alcotest.fail "conflict" | None -> ());
  check_int "g1 implied at depth 2" 1 (State.bool_value s (E.var enc g1));
  check_int "g2 implied at depth 2" 1 (State.bool_value s (E.var enc g2))

let test_learning_root_unsat () =
  (* (a|b)(a|~b)(~a|b)(~a|~b) with a = (x > 5): root propagation only
     fixes the four ORs.  Learning first probes r = (y > 3) and learns
     r -> z, then finds both values of the predicate a refuted — a
     root-level Unsat that skips the search *)
  let c = N.create "pl_root_unsat" in
  let y = N.input c ~name:"y" 4 in
  let k = N.input c ~name:"k" 1 in
  let r = N.gt c y (N.const c ~width:4 3) in
  N.output c "z" (N.or_ c ~name:"z" [ r; k ]);
  let x = N.input c ~name:"x" 4 in
  let a = N.gt c x (N.const c ~width:4 5) in
  let b = N.input c ~name:"b" 1 in
  let na = N.not_ c a and nb = N.not_ c b in
  let o =
    N.and_ c
      [ N.or_ c [ a; b ]; N.or_ c [ a; nb ]; N.or_ c [ na; b ]; N.or_ c [ na; nb ] ]
  in
  N.output c "o" o;
  let enc = E.encode c in
  E.assume_bool enc o true;
  List.iter
    (fun (name, options) ->
       let o = Solver.solve ~options:{ options with Solver.collect_learned = true } enc in
       check_bool (name ^ " unsat") true (o.Solver.result = Solver.Unsat);
       check_root_exit name o;
       check_bool (name ^ " relations reported") true (o.Solver.stats.Solver.relations >= 1);
       check_int (name ^ " relations are the learned clauses")
         o.Solver.stats.Solver.relations o.Solver.stats.Solver.learned;
       check_bool (name ^ " learn time reported") true
         (o.Solver.stats.Solver.learn_time > 0.0))
    [ ("hdpll+p", Solver.hdpll_p); ("hdpll+s+p", Solver.hdpll_sp) ]

let test_solve_problem_bare () =
  (* no netlist: +S and +P silently disabled, solving still works *)
  let p = P.create () in
  let b = P.new_bool p ~name:"b" () in
  let w = P.new_word p ~name:"w" (I.make 0 10) in
  P.add_constr p (T.Pred { b; e = T.lin_of_terms [ (1, w) ] (-4) });
  P.add_clause p [| T.Pos b |];
  P.add_clause p [| T.Ge (w, 2) |];
  let { Solver.result; _ } = Solver.solve_problem ~options:Solver.hdpll_sp p in
  (match result with
   | Solver.Sat m ->
     check_bool "w in [2,4]" true (m.(w) >= 2 && m.(w) <= 4);
     check_int "b true" 1 m.(b)
   | _ -> Alcotest.fail "expected sat");
  (* and an unsatisfiable one *)
  let p = P.create () in
  let w = P.new_word p (I.make 0 10) in
  P.add_clause p [| T.Ge (w, 7) |];
  P.add_constr p (T.Lin_le (T.lin_of_terms [ (1, w) ] (-3)));
  (* w >= 7 against w <= 3: refuted by root propagation *)
  let o =
    Solver.solve_problem ~options:{ Solver.default with Solver.collect_learned = true } p
  in
  check_bool "unsat" true (o.Solver.result = Solver.Unsat);
  check_root_exit "root conflict" o;
  check_int "root conflict learned" 0 o.Solver.stats.Solver.learned;
  check_int "root conflict relations" 0 o.Solver.stats.Solver.relations

let test_rejects_hybrid_input_clause () =
  let p = P.create () in
  let w = P.new_word p (I.make 0 10) in
  let b = P.new_bool p () in
  P.add_clause p [| T.Pos b; T.Ge (w, 3) |];
  Alcotest.check_raises "rejected"
    (Invalid_argument "Solver: multi-atom input clauses must be purely Boolean")
    (fun () -> ignore (Solver.solve_problem p))

let test_collect_learned_off_by_default () =
  let c, _, _, z = build_combo () in
  let enc = E.encode c in
  E.assume_interval enc z (I.point 9);
  let { Solver.learned_clauses; _ } = Solver.solve enc in
  check_int "no clauses collected" 0 (List.length learned_clauses)

(* ---- randomized: solver vs brute-force simulation ---- *)

let gen_circuit seed =
  let rng = Random.State.make [| seed |] in
  let c = N.create "rand" in
  let a = N.input c ~name:"a" 4 and b = N.input c ~name:"b" 4 in
  let words = ref [ a; b ] in
  let bools = ref [] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for _ = 1 to 14 do
    match Random.State.int rng 9 with
    | 0 -> words := N.add c (pick !words) (pick !words) :: !words
    | 1 -> words := N.sub c (pick !words) (pick !words) :: !words
    | 2 ->
      bools :=
        N.cmp c (pick [ Ir.Eq; Ir.Lt; Ir.Ge; Ir.Ne ]) (pick !words) (pick !words)
        :: !bools
    | 3 ->
      if !bools <> [] then
        words := N.mux c ~sel:(pick !bools) ~t:(pick !words) ~e:(pick !words) () :: !words
    | 4 -> if !bools <> [] then bools := N.not_ c (pick !bools) :: !bools
    | 5 -> if List.length !bools >= 2 then bools := N.and_ c [ pick !bools; pick !bools ] :: !bools
    | 6 -> if List.length !bools >= 2 then bools := N.or_ c [ pick !bools; pick !bools ] :: !bools
    | 7 -> if List.length !bools >= 2 then bools := N.xor_ c (pick !bools) (pick !bools) :: !bools
    | _ -> words := N.bitxor c (pick !words) (pick !words) :: !words
  done;
  let goal =
    match !bools with
    | [] -> N.eq_const c (pick !words) 3
    | _ -> pick !bools
  in
  N.output c "goal" goal;
  (c, a, b, goal)

let brute_force_goal c a b goal value =
  let found = ref false in
  for av = 0 to 15 do
    for bv = 0 to 15 do
      if not !found then begin
        let vals = Sim.eval c (Sim.initial_state c) ~inputs:[ (a, av); (b, bv) ] in
        if Sim.value vals goal = value then found := true
      end
    done
  done;
  !found

let prop_solver_matches_sim options name =
  QCheck.Test.make ~name ~count:120
    (QCheck.pair (QCheck.int_bound 100_000) QCheck.bool)
    (fun (seed, value) ->
       let c, a, b, goal = gen_circuit seed in
       let enc = E.encode c in
       E.assume_bool enc goal value;
       let expected = brute_force_goal c a b goal (if value then 1 else 0) in
       let { Solver.result; _ } = Solver.solve ~options enc in
       match result with
       | Solver.Sat m ->
         expected
         && Result.is_ok (P.check_model enc.E.problem (fun v -> m.(v)))
         && model_agrees_with_sim c enc m
       | Solver.Unsat -> not expected
       | Solver.Timeout -> QCheck.assume_fail ())

let qsuite = Qutil.qsuite

let () =
  Alcotest.run "core"
    [
      ( "state",
        [
          Alcotest.test_case "bounds & backtrack" `Quick test_state_bounds;
          Alcotest.test_case "conflict on empty domain" `Quick test_state_conflict_on_empty;
          Alcotest.test_case "entailing entry" `Quick test_entailing_entry;
          Qutil.to_alcotest prop_entailing_entry;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "generalized bound literal" `Quick
            test_analyze_generalizes_bounds;
          Alcotest.test_case "resolution to decision" `Quick
            test_analyze_resolves_to_decision;
          Alcotest.test_case "root conflict" `Quick test_analyze_root_conflict;
          Alcotest.test_case "clause DB reduction" `Quick test_reduce_clause_db;
        ] );
      ( "icp",
        [
          Alcotest.test_case "comparator (paper eq 2/3)" `Quick test_icp_comparator;
          Alcotest.test_case "mux hull & select" `Quick test_icp_mux_hull_and_select;
        ] );
      ( "solve",
        [
          Alcotest.test_case "sat across configs" `Quick test_solve_sat_all_configs;
          Alcotest.test_case "unsat across configs" `Quick test_solve_unsat_all_configs;
          Alcotest.test_case "word-level unsat" `Quick test_solve_word_unsat;
          Alcotest.test_case "wrap-around sat" `Quick test_wrap_add_sat;
          Alcotest.test_case "timeout" `Quick test_timeout;
        ] );
      ( "structural",
        [
          Alcotest.test_case "figure 4 trace" `Quick test_fig4_justification;
          Alcotest.test_case "candidates" `Quick test_justify_candidates;
          Alcotest.test_case "J-conflict payload" `Quick test_jconflict_direct;
        ] );
      ( "learning",
        [
          Alcotest.test_case "figure 1 recursive learning" `Quick test_fig1_recursive_learning;
          Alcotest.test_case "threshold" `Quick test_learning_threshold;
          Alcotest.test_case "depth 2" `Quick test_learning_depth_2;
          Alcotest.test_case "root unsat" `Quick test_learning_root_unsat;
        ] );
      ( "api",
        [
          Alcotest.test_case "solve_problem (bare)" `Quick test_solve_problem_bare;
          Alcotest.test_case "hybrid input clause rejected" `Quick
            test_rejects_hybrid_input_clause;
          Alcotest.test_case "collect_learned default" `Quick
            test_collect_learned_off_by_default;
        ] );
      qsuite "props"
        (List.map
           (fun (name, options) ->
              prop_solver_matches_sim options ("solver = brute force (" ^ name ^ ")"))
           configs);
    ]
