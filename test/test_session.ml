(* Incremental solver sessions (Solver.Session): monotone appends,
   assumption push/pop semantics, carried-lemma counters, and the
   equivalence property — a bound sweep through one session must agree
   verdict-for-verdict with fresh per-bound solves in every HDPLL
   configuration and the bit-blast baseline, with Sat witnesses
   replayed through the simulator. *)

module P = Rtlsat_constr.Problem
module T = Rtlsat_constr.Types
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Session = Rtlsat_core.Solver.Session
module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module Engines = Rtlsat_harness.Engines
module Gen = Rtlsat_fuzz.Gen
module Case = Rtlsat_fuzz.Case
module Obs = Rtlsat_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let result_tag = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Timeout -> "timeout"

let check_result msg expected r = Alcotest.(check string) msg expected (result_tag r)

(* ---- monotone appends keep the session usable ---- *)

let test_monotone_appends () =
  let p = P.create () in
  let a = P.new_bool p ~name:"a" () in
  let b = P.new_bool p ~name:"b" () in
  P.add_clause p [| T.Pos a; T.Pos b |];
  let sess = Session.of_problem p in
  let r1 = Session.solve sess in
  check_result "initially sat" "sat" r1.Session.outcome.Solver.result;
  check_int "first call" 1 r1.Session.n_solves;
  (* appending new variables and clauses between calls must be picked
     up by the next solve *)
  let c = P.new_bool p ~name:"c" () in
  Session.add_clause sess [| T.Pos c |];
  Session.add_atom sess (T.Neg a);
  let r2 = Session.solve sess in
  check_result "still sat" "sat" r2.Session.outcome.Solver.result;
  (match r2.Session.outcome.Solver.result with
   | Solver.Sat m ->
     check_int "a forced off" 0 m.(a);
     check_int "b forced on" 1 m.(b);
     check_int "c forced on" 1 m.(c)
   | _ -> ());
  Session.add_atom sess (T.Neg b);
  let r3 = Session.solve sess in
  check_result "contradiction appended" "unsat" r3.Session.outcome.Solver.result;
  check_int "third call" 3 r3.Session.n_solves

(* ---- assumptions decide the prefix and pop after the call ---- *)

let test_assumptions_pop () =
  let p = P.create () in
  let a = P.new_bool p ~name:"a" () in
  let sess = Session.of_problem p in
  let under asm =
    (Session.solve ~assumptions:asm sess).Session.outcome.Solver.result
  in
  (match under [| T.Pos a |] with
   | Solver.Sat m -> check_int "assumed on" 1 m.(a)
   | r -> check_result "sat under Pos" "sat" r);
  (* the opposite assumption on the same session: nothing from the
     previous call may persist *)
  (match under [| T.Neg a |] with
   | Solver.Sat m -> check_int "assumed off" 0 m.(a)
   | r -> check_result "sat under Neg" "sat" r);
  (match under [||] with
   | Solver.Sat _ -> ()
   | r -> check_result "free solve stays sat" "sat" r)

let test_unsat_under_assumptions () =
  let p = P.create () in
  let a = P.new_bool p ~name:"a" () in
  P.add_clause p [| T.Pos a |];
  let sess = Session.of_problem p in
  let r1 = Session.solve ~assumptions:[| T.Neg a |] sess in
  check_result "unsat under conflicting assumption" "unsat"
    r1.Session.outcome.Solver.result;
  (* unsat-under-assumptions must not poison the session *)
  let r2 = Session.solve sess in
  check_result "sat without it" "sat" r2.Session.outcome.Solver.result

let test_word_assumptions () =
  let p = P.create () in
  let w = P.new_word p ~name:"w" (Rtlsat_interval.Interval.make 0 15) in
  let sess = Session.of_problem p in
  let r = Session.solve ~assumptions:[| T.Ge (w, 9); T.Le (w, 9) |] sess in
  (match r.Session.outcome.Solver.result with
   | Solver.Sat m -> check_int "interval assumption pins w" 9 m.(w)
   | res -> check_result "sat under interval" "sat" res);
  let r2 = Session.solve ~assumptions:[| T.Ge (w, 16) |] sess in
  check_result "empty interval is unsat" "unsat" r2.Session.outcome.Solver.result

(* ---- carried counters and per-call vs cumulative stats ---- *)

let test_carried_counters () =
  (* a BMC instance small enough to be instant but non-trivial *)
  let c = N.create "carried" in
  let x = N.input c ~name:"x" 8 in
  let r = N.reg c ~name:"r" ~width:8 ~init:0 () in
  N.connect r (N.add c r x);
  let prop = N.le c r (N.const c ~width:8 200) in
  N.output c "prop" prop;
  let sw = Bmc.sweep c ~prop () in
  let v1 = Bmc.sweep_violation sw ~bound:2 in
  let enc = E.encode (Unroll.combo (Bmc.sweep_unrolled sw)) in
  let sess = Session.create ~options:Solver.hdpll_sp enc in
  let r1 = Session.solve ~assumptions:[| T.Pos (E.var enc v1) |] sess in
  check_int "nothing carried into the first call" 0 r1.Session.carried_clauses;
  check_int "no relations carried either" 0 r1.Session.carried_relations;
  let v2 = Bmc.sweep_violation sw ~bound:4 in
  E.extend enc;
  let r2 = Session.solve ~assumptions:[| T.Pos (E.var enc v2) |] sess in
  check_bool "lemmas carried into the second call" true
    (r2.Session.carried_clauses >= 0);
  check_int "two calls" 2 r2.Session.n_solves;
  let cum = r2.Session.cumulative and per = r2.Session.outcome.Solver.stats in
  check_bool "per-call decisions within cumulative" true
    (per.Solver.decisions <= cum.Solver.decisions);
  check_bool "cumulative counts both calls" true
    (cum.Solver.decisions
     >= r1.Session.outcome.Solver.stats.Solver.decisions + per.Solver.decisions
        - cum.Solver.decisions || cum.Solver.decisions >= per.Solver.decisions);
  check_bool "cumulative time includes both calls" true
    (cum.Solver.solve_time >= per.Solver.solve_time)

(* session lifecycle counters surface through the obs layer *)
let test_session_obs_counters () =
  let obs = Obs.create () in
  let p = P.create () in
  let a = P.new_bool p () in
  P.add_clause p [| T.Pos a |];
  let sess =
    Session.of_problem ~options:{ Solver.default with Solver.obs } p
  in
  ignore (Session.solve sess);
  ignore (Session.solve sess);
  check_int "session.creates" 1 (Obs.counter obs "session.creates");
  check_int "session.solves" 2 (Obs.counter obs "session.solves");
  Obs.close obs

(* ---- a warm b13_2 ladder pins the search ----

   Per-call decisions and conflicts, and the per-call Hsimp counters,
   of one warm hdpll+s+p session over a random-access bound ladder.
   The bounds revisit the clause database after a deep call (200), so
   every call but the first runs Hsimp over carried lemmas, grown
   frames and predicate relations.  The figures are the search as it
   stands; a change that moves it must update them deliberately. *)

(* per call: bound, decisions, conflicts, simplify.subsumed,
   simplify.strengthened *)
let b13_2_ladder =
  [ [ 20; 60; 43; 43; 41 ]; [ 200; 24428; 5016; 52; 30 ];
    [ 40; 32; 32; 3143; 463 ]; [ 150; 1098; 2; 1; 6 ]; [ 60; 41; 41; 0; 0 ] ]

let test_b13_2_ladder () =
  let obs = Obs.create () in
  let req = Rtlsat_harness.Req.make ~timeout:120.0 ~obs () in
  let source, props = Rtlsat_itc99.Registry.build "b13" in
  let sess =
    Engines.session ~req Engines.Hdpll_sp source ~prop:(List.assoc "2" props)
  in
  let seen = ref (0, 0) in
  let actual =
    List.map
      (fun row ->
         let bound = List.hd row in
         let r = (Engines.sweep_step ~req sess ~bound).Engines.sw_run in
         let sub = Obs.counter obs "simplify.subsumed"
         and str = Obs.counter obs "simplify.strengthened" in
         let sub0, str0 = !seen in
         seen := (sub, str);
         [ bound; r.Engines.decisions; r.Engines.conflicts; sub - sub0;
           str - str0 ])
      b13_2_ladder
  in
  Obs.close obs;
  Alcotest.(check (list (list int))) "per-call search counters" b13_2_ladder
    actual

(* ---- equivalence property: one session per sweep vs fresh solves ---- *)

let sweep_engines =
  [
    Engines.Hdpll; Engines.Hdpll_s; Engines.Hdpll_sp; Engines.Hdpll_p;
    Engines.Bitblast;
  ]

let sweep_equivalence =
  QCheck.Test.make ~count:20
    ~name:"session sweep agrees with from-scratch solves (all engines)"
    QCheck.(small_nat)
    (fun seed ->
       let case =
         Gen.circuit ~seed
           ~cfg:{ Gen.default with Gen.max_nodes = 10; max_bound = 3 } ()
       in
       let bounds = [ 1; 2; 3; 4 ] in
       List.for_all
         (fun engine ->
            let req = Rtlsat_harness.Req.make ~timeout:2.0 () in
            let steps =
              Engines.run_sweep ~req engine case.Case.circuit
                ~prop:case.Case.prop ~semantics:case.Case.semantics ~bounds
            in
            List.for_all
              (fun (step : Engines.sweep_step) ->
                 let scratch =
                   Engines.run_instance ~req engine
                     (Bmc.make case.Case.circuit ~prop:case.Case.prop
                        ~bound:step.Engines.sw_bound
                        ~semantics:case.Case.semantics ())
                 in
                 (* witness replay is built into both paths: any Abort
                    is a failure.  Timeouts never count as
                    disagreement. *)
                 match
                   (step.Engines.sw_run.Engines.verdict, scratch.Engines.verdict)
                 with
                 | Engines.Abort _, _ | _, Engines.Abort _ -> false
                 | Engines.Timeout, _ | _, Engines.Timeout -> true
                 | a, b -> a = b)
              steps)
         sweep_engines)

let () =
  Alcotest.run "session"
    [
      ( "session",
        [
          Alcotest.test_case "monotone appends" `Quick test_monotone_appends;
          Alcotest.test_case "assumptions pop" `Quick test_assumptions_pop;
          Alcotest.test_case "unsat under assumptions" `Quick
            test_unsat_under_assumptions;
          Alcotest.test_case "word assumptions" `Quick test_word_assumptions;
          Alcotest.test_case "carried counters" `Quick test_carried_counters;
          Alcotest.test_case "obs counters" `Quick test_session_obs_counters;
          Alcotest.test_case "b13_2 warm ladder pins the search" `Quick
            test_b13_2_ladder;
        ] );
      Qutil.qsuite "sweep-properties" [ sweep_equivalence ];
    ]
