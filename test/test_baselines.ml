(* Tests for the two baseline engines: bit-blasting and the lazy CDP,
   cross-validated against the hybrid solver and brute-force
   simulation. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Sim = Rtlsat_rtl.Sim
module E = Rtlsat_constr.Encode
module P = Rtlsat_constr.Problem
module I = Rtlsat_interval.Interval
module Solver = Rtlsat_core.Solver
module BB = Rtlsat_baselines.Bitblast
module C = Rtlsat_sat.Cdcl
module Lazy_cdp = Rtlsat_baselines.Lazy_cdp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- bit-blasting ---- *)

(* every node agrees with the simulator under every assignment of the
   circuit's inputs: each assignment is pinned with point intervals and
   the node values are read from the SAT model *)
let check_sim c nodes =
  let rec assignments = function
    | [] -> [ [] ]
    | n :: rest ->
      let tails = assignments rest in
      List.concat_map
        (fun v -> List.map (fun tl -> (n, v) :: tl) tails)
        (List.init (1 lsl n.Ir.width) Fun.id)
  in
  List.iter
    (fun inputs ->
       let bb = BB.encode c in
       List.iter (fun (n, v) -> BB.assume_interval bb n (I.point v)) inputs;
       match BB.solve bb with
       | BB.Sat ->
         let vals = Sim.eval c (Sim.initial_state c) ~inputs in
         let at =
           String.concat " "
             (List.map (fun (n, v) -> Printf.sprintf "%s=%d" (Ir.node_name n) v) inputs)
         in
         List.iter
           (fun n ->
              check_int
                (Printf.sprintf "node %s %s" (Ir.node_name n) at)
                (Sim.value vals n) (BB.node_value bb n))
           nodes
       | _ -> Alcotest.fail "point assignment must be sat")
    (assignments (Ir.inputs c))

let test_bb_ops_exhaustive () =
  (* every word operator agrees with the simulator *)
  let c = N.create "ops" in
  let a = N.input c ~name:"a" 3 in
  let b = N.input c ~name:"b" 3 in
  let nodes =
    [
      N.add c a b; N.add_ext c a b; N.sub c a b; N.mul_const c 5 a;
      N.concat c ~hi:a ~lo:b; N.extract c a ~msb:2 ~lsb:1;
      N.zext c a ~width:5; N.shl c a 2; N.shr c a 1;
      N.bitand c a b; N.bitor c a b; N.bitxor c a b;
    ]
  in
  let cmps = List.map (fun op -> N.cmp c op a b) [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ] in
  let mux =
    N.mux c ~sel:(List.hd cmps) ~t:a ~e:b ()
  in
  check_sim c ((mux :: nodes) @ cmps)

let test_bb_unsat () =
  let c = N.create "unsat" in
  let a = N.input c ~name:"a" 4 in
  let b = N.input c ~name:"b" 4 in
  let both = N.and_ c [ N.lt c a b; N.gt c a b ] in
  N.output c "both" both;
  let bb = BB.encode c in
  BB.assume_bool bb both true;
  check_bool "unsat" true (BB.solve bb = BB.Unsat)

let test_bb_interval_assumption () =
  let c = N.create "iv" in
  let a = N.input c ~name:"a" 4 in
  N.output c "a" a;
  let bb = BB.encode c in
  BB.assume_interval bb a (I.make 5 9);
  (match BB.solve bb with
   | BB.Sat ->
     let v = BB.node_value bb a in
     check_bool "in range" true (v >= 5 && v <= 9)
   | _ -> Alcotest.fail "sat expected");
  let bb2 = BB.encode c in
  BB.assume_interval bb2 a (I.make 5 9);
  BB.assume_interval bb2 a (I.make 10 12);
  check_bool "disjoint ranges unsat" true (BB.solve bb2 = BB.Unsat)

(* ---- constant folding ----

   A gate with a constant, repeated or complementary input returns an
   existing literal and creates no variable and no clause.  Each case
   is encoded with [BB.extend] on top of its inputs, so the solver's
   sizes before and after show what the gate cost. *)

let sizes bb = (C.n_vars (BB.solver bb), C.n_clauses (BB.solver bb))

let test_fold_gates () =
  let c = N.create "fold" in
  let x = N.input c ~name:"x" 1 and s = N.input c ~name:"s" 1 in
  let tt = N.ctrue c and ff = N.cfalse c in
  let nx = N.not_ c x and ns = N.not_ c s in
  let bb = BB.encode c in
  let before = sizes bb in
  let lit = BB.bool_lit bb in
  let cases =
    [
      ("and x 1", N.and_ c [ x; tt ], lit x);
      ("and 1 x", N.and_ c [ tt; x ], lit x);
      ("and x 0", N.and_ c [ x; ff ], lit ff);
      ("and x x", N.and_ c [ x; x ], lit x);
      ("and x ~x", N.and_ c [ x; nx ], lit ff);
      ("and x 1 x", N.and_ c [ x; tt; x ], lit x);
      ("or x 0", N.or_ c [ x; ff ], lit x);
      ("or 0 x", N.or_ c [ ff; x ], lit x);
      ("or x 1", N.or_ c [ x; tt ], lit tt);
      ("or x x", N.or_ c [ x; x ], lit x);
      ("or ~x x", N.or_ c [ nx; x ], lit tt);
      ("xor x 0", N.xor_ c x ff, lit x);
      ("xor 1 x", N.xor_ c tt x, lit nx);
      ("xor x x", N.xor_ c x x, lit ff);
      ("xor x ~x", N.xor_ c x nx, lit tt);
      ("mux 1 x s", N.mux c ~sel:tt ~t:x ~e:s (), lit x);
      ("mux 0 x s", N.mux c ~sel:ff ~t:x ~e:s (), lit s);
      ("mux s x x", N.mux c ~sel:s ~t:x ~e:x (), lit x);
      ("mux s 1 0", N.mux c ~sel:s ~t:tt ~e:ff (), lit s);
      ("mux s 0 1", N.mux c ~sel:s ~t:ff ~e:tt (), lit ns);
    ]
  in
  BB.extend bb;
  List.iter (fun (name, n, expected) -> check_int name expected (BB.bool_lit bb n)) cases;
  Alcotest.(check (pair int int)) "no variable and no clause" before (sizes bb);
  check_sim c (List.map (fun (_, n, _) -> n) cases)

let test_fold_words () =
  let c = N.create "foldw" in
  let x = N.input c ~name:"x" 4 in
  let zero = N.const c ~width:4 0 and five = N.const c ~width:4 5 in
  let bb = BB.encode c in
  let inputs_only = (1 + 4, snd (sizes bb)) in
  let nodes =
    [
      N.add c x zero; N.add_ext c x zero; N.sub c x zero;
      N.mul_const c 1 x; N.mul_const c 2 x; N.mul_const c 8 x;
      N.eq c x x; N.ge c x x; N.lt c x zero; N.le c zero x;
      N.shl c x 2; N.shr c x 1; N.zext c x ~width:6;
      N.mux c ~sel:(N.ctrue c) ~t:x ~e:five ();
    ]
  in
  BB.extend bb;
  Alcotest.(check (pair int int)) "the true variable and the input bits only"
    inputs_only (sizes bb);
  check_sim c nodes;
  (* a point on a constant node is decided by folding alone *)
  let point v =
    let bb = BB.encode c in
    BB.assume_interval bb five (I.point v);
    Alcotest.(check (pair int int)) "point on a constant" inputs_only (sizes bb);
    BB.solve bb
  in
  check_bool "the constant's own value" true (point 5 = BB.Sat);
  check_bool "another value" true (point 6 = BB.Unsat)

(* ---- lazy CDP ---- *)

let test_lazy_simple () =
  let c = N.create "lz" in
  let a = N.input c ~name:"a" 4 in
  let b = N.input c ~name:"b" 4 in
  let p = N.and_ c [ N.lt c a b; N.eq_const c a 7 ] in
  N.output c "p" p;
  let enc = E.encode c in
  E.assume_bool enc p true;
  let result, stats = Lazy_cdp.solve enc.E.problem in
  (match result with
   | Lazy_cdp.Sat m ->
     check_int "a=7" 7 m.(E.var enc a);
     check_bool "b>7" true (m.(E.var enc b) > 7)
   | _ -> Alcotest.fail "sat expected");
  check_bool "theory consulted" true (stats.Lazy_cdp.theory_calls >= 1)

let test_lazy_unsat_needs_blocking () =
  (* a < b ∧ b < c ∧ c < a: the skeleton is Boolean-satisfiable, only
     theory refutations (blocking clauses) can close it *)
  let c = N.create "cycle" in
  let x = N.input c ~name:"x" 3 in
  let y = N.input c ~name:"y" 3 in
  let z = N.input c ~name:"z" 3 in
  let p = N.and_ c [ N.lt c x y; N.lt c y z; N.lt c z x ] in
  N.output c "p" p;
  let enc = E.encode c in
  E.assume_bool enc p true;
  let result, stats = Lazy_cdp.solve enc.E.problem in
  check_bool "unsat" true (result = Lazy_cdp.Unsat);
  check_bool "used blocking clauses" true (stats.Lazy_cdp.blocking_clauses >= 1)

(* ---- randomized cross-engine agreement ---- *)

let gen_circuit seed =
  let rng = Random.State.make [| seed |] in
  let c = N.create "rand" in
  let a = N.input c ~name:"a" 4 and b = N.input c ~name:"b" 4 in
  let words = ref [ a; b ] in
  let bools = ref [] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for _ = 1 to 12 do
    match Random.State.int rng 8 with
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
    | _ -> words := N.bitxor c (pick !words) (pick !words) :: !words
  done;
  let goal = match !bools with [] -> N.eq_const c (pick !words) 3 | _ -> pick !bools in
  N.output c "goal" goal;
  (c, goal)

let hdpll_verdict c goal value =
  let enc = E.encode c in
  E.assume_bool enc goal value;
  match (Solver.solve enc).Solver.result with
  | Solver.Sat _ -> true
  | Solver.Unsat -> false
  | Solver.Timeout -> QCheck.assume_fail ()

let prop_bb_matches_hdpll =
  QCheck.Test.make ~name:"bitblast = hdpll" ~count:100
    (QCheck.pair (QCheck.int_bound 100_000) QCheck.bool)
    (fun (seed, value) ->
       let c, goal = gen_circuit seed in
       let expected = hdpll_verdict c goal value in
       let bb = BB.encode c in
       BB.assume_bool bb goal value;
       match BB.solve bb with
       | BB.Sat ->
         expected
         && (let inputs =
               List.map (fun n -> (n, BB.node_value bb n)) (Ir.inputs c)
             in
             let vals = Sim.eval c (Sim.initial_state c) ~inputs in
             Sim.value vals goal = (if value then 1 else 0))
       | BB.Unsat -> not expected
       | BB.Timeout -> QCheck.assume_fail ())

let prop_lazy_matches_hdpll =
  QCheck.Test.make ~name:"lazy-cdp = hdpll" ~count:60
    (QCheck.pair (QCheck.int_bound 100_000) QCheck.bool)
    (fun (seed, value) ->
       let c, goal = gen_circuit seed in
       let expected = hdpll_verdict c goal value in
       let enc = E.encode c in
       E.assume_bool enc goal value;
       match fst (Lazy_cdp.solve ~deadline:(Unix.gettimeofday () +. 30.0) enc.E.problem) with
       | Lazy_cdp.Sat m ->
         expected && Result.is_ok (P.check_model enc.E.problem (fun v -> m.(v)))
       | Lazy_cdp.Unsat -> not expected
       | Lazy_cdp.Timeout -> QCheck.assume_fail ())

let qsuite = Qutil.qsuite

let () =
  Alcotest.run "baselines"
    [
      ( "bitblast",
        [
          Alcotest.test_case "ops exhaustive" `Slow test_bb_ops_exhaustive;
          Alcotest.test_case "unsat" `Quick test_bb_unsat;
          Alcotest.test_case "interval assumptions" `Quick test_bb_interval_assumption;
          Alcotest.test_case "folded gates" `Quick test_fold_gates;
          Alcotest.test_case "folded word operators" `Quick test_fold_words;
        ] );
      ( "lazy-cdp",
        [
          Alcotest.test_case "simple theory" `Quick test_lazy_simple;
          Alcotest.test_case "blocking clauses" `Quick test_lazy_unsat_needs_blocking;
        ] );
      qsuite "props" [ prop_bb_matches_hdpll; prop_lazy_matches_hdpll ];
    ]
