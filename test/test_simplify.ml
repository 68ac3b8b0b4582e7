(* Tests for the pre/inprocessing pipeline: the pure CNF passes
   (subsumption, self-subsuming resolution, bounded variable
   elimination with model reconstruction, failed-literal probing,
   binary-implication SCC collapsing), the hybrid clause-database pass,
   the DIMACS round trip, and — the lock-in — simplify-on vs
   simplify-off verdict agreement across every engine. *)

module Simp = Rtlsat_simplify.Simp
module Cdcl = Rtlsat_sat.Cdcl
module Dimacs = Rtlsat_sat.Dimacs
module Bitblast = Rtlsat_baselines.Bitblast
module Solver = Rtlsat_core.Solver
module Engines = Rtlsat_harness.Engines
module Registry = Rtlsat_itc99.Registry
module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module Obs = Rtlsat_obs.Obs
module Case = Rtlsat_fuzz.Case
module Gen = Rtlsat_fuzz.Gen
module P = Rtlsat_constr.Problem
module T = Rtlsat_constr.Types
module I = Rtlsat_interval.Interval

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* DIMACS-style literal over 0-based solver encoding: [l 1] is
   variable 0 positive, [l (-1)] its negation *)
let l n = if n > 0 then 2 * (n - 1) else (2 * (-n - 1)) + 1

let clause lits = Array.of_list (List.map l lits)

let run ?elim ?max_rounds ~nvars cls =
  Simp.run ?elim ?max_rounds ~nvars ~units:[]
    ~clauses:(List.map clause cls) ()

(* a clause list is satisfied under a model indexed by variable *)
let sat_under model cls =
  List.for_all
    (fun c ->
       List.exists
         (fun n -> if n > 0 then model.(n - 1) else not model.(-n - 1))
         c)
    cls

(* ---- the individual passes ---- *)

let test_subsumption () =
  let cls = [ [ 1; 2 ]; [ 1; 2; 3 ]; [ -1; 3 ] ] in
  let r = run ~elim:false ~nvars:3 cls in
  check_int "one clause subsumed" 1 r.Simp.r_stats.Simp.subsumed;
  check_bool "not unsat" false r.Simp.r_unsat;
  check_bool "superset clause gone" true
    (not (List.exists (fun c -> Array.length c = 3) r.Simp.r_clauses))

let test_self_subsumption () =
  (* (1 2) with (-1 2 3): the resolvent on 1 strengthens the second
     clause to (2 3) *)
  let r = run ~elim:false ~nvars:3 [ [ 1; 2 ]; [ -1; 2; 3 ] ] in
  check_int "one literal removed" 1 r.Simp.r_stats.Simp.strengthened;
  check_bool "strengthened clause present" true
    (List.exists
       (fun c -> List.sort compare (Array.to_list c) = [ l 2; l 3 ])
       r.Simp.r_clauses)

let test_variable_elimination_and_reconstruction () =
  (* resolving out 1 from (1 2 3) and (-1 2 4) leaves (2 3 4); a model
     of the residue must extend to the eliminated variable *)
  let cls = [ [ 1; 2; 3 ]; [ -1; 2; 4 ] ] in
  let r = run ~nvars:4 cls in
  check_bool "variables eliminated" true (r.Simp.r_stats.Simp.eliminated >= 1);
  check_bool "sat residue" false r.Simp.r_unsat;
  (* everything is eliminable here, so the residue must be empty *)
  check_int "no clauses left" 0 (List.length r.Simp.r_clauses);
  let model = Array.make 4 false in
  List.iter (fun u -> model.(u lsr 1) <- u land 1 = 0) r.Simp.r_units;
  Simp.extend_model r model;
  check_bool "reconstructed model satisfies the original" true
    (sat_under model cls)

let test_failed_literal () =
  (* assuming -1 propagates 2 and 3 into the conflict (-2 -3), so 1 is
     a top-level unit *)
  let r =
    run ~elim:false ~nvars:3 [ [ 1; 2 ]; [ 1; 3 ]; [ -2; -3 ] ]
  in
  check_int "one failed literal" 1 r.Simp.r_stats.Simp.probed;
  check_bool "1 derived as a unit" true (List.mem (l 1) r.Simp.r_units)

let test_scc_equivalence () =
  (* (-1 2)(1 -2) make 1 and 2 equivalent; 2 is substituted by 1 *)
  let r = run ~elim:false ~nvars:3 [ [ -1; 2 ]; [ 1; -2 ]; [ 1; 3 ] ] in
  check_int "one equivalence" 1 r.Simp.r_stats.Simp.equivs;
  check_int "2 maps onto 1" (l 1) (Simp.map_lit r.Simp.r_repr (l 2));
  check_int "-2 maps onto -1" (l (-1)) (Simp.map_lit r.Simp.r_repr (l (-2)))

let test_scc_detects_unsat () =
  (* 1 -> 2 -> -1 and -1 -> 1: a literal in the same component as its
     negation *)
  let r =
    run ~elim:false ~nvars:2 [ [ -1; 2 ]; [ -2; -1 ]; [ 1; 2 ]; [ 1; -2 ] ]
  in
  check_bool "unsat" true r.Simp.r_unsat

let test_frozen_never_eliminated () =
  let cls = [ [ 1; 2; 3 ]; [ -1; 2; 4 ] ] in
  let r =
    Simp.run ~frozen:(fun v -> v = 0) ~nvars:4 ~units:[]
      ~clauses:(List.map clause cls) ()
  in
  check_bool "frozen variable survives" true
    (not (List.mem_assoc 0 r.Simp.r_elim))

(* ---- differential suite: Simp against the reference pipeline ----

   [Simp_ref] is a frozen copy of the list-based pipeline that the
   allocation-free Simp replaced.  Simp promises a structurally equal
   result on every input — same clauses in the same order, same units,
   repr, elimination records and pass counters — because the CDCL
   search downstream, and every counter pinned by the perf anchor,
   depends on exactly that output. *)

let same_stats (a : Simp.stats) (b : Simp_ref.stats) =
  a.Simp.subsumed = b.Simp_ref.subsumed
  && a.Simp.strengthened = b.Simp_ref.strengthened
  && a.Simp.eliminated = b.Simp_ref.eliminated
  && a.Simp.probed = b.Simp_ref.probed
  && a.Simp.equivs = b.Simp_ref.equivs
  && a.Simp.rounds = b.Simp_ref.rounds

(* the first differing field, if any *)
let result_diff (a : Simp.result) (b : Simp_ref.result) =
  if a.Simp.r_unsat <> b.Simp_ref.r_unsat then Some "r_unsat"
  else if a.Simp.r_clauses <> b.Simp_ref.r_clauses then Some "r_clauses"
  else if a.Simp.r_units <> b.Simp_ref.r_units then Some "r_units"
  else if a.Simp.r_repr <> b.Simp_ref.r_repr then Some "r_repr"
  else if a.Simp.r_elim <> b.Simp_ref.r_elim then Some "r_elim"
  else if not (same_stats a.Simp.r_stats b.Simp_ref.r_stats) then
    Some "r_stats"
  else None

let diff_label a b =
  match result_diff a b with None -> "equal" | Some f -> f ^ " differs"

type dcase = {
  d_nvars : int;
  d_units : int list;
  d_clauses : int array list;
  d_elim : bool;
  d_frozen : int list;
  d_rounds : int;
}

let print_dcase d =
  let lits c = String.concat "," (List.map string_of_int (Array.to_list c)) in
  Printf.sprintf "nvars=%d elim=%b rounds=%d frozen=[%s] units=[%s] cls=[%s]"
    d.d_nvars d.d_elim d.d_rounds
    (String.concat "," (List.map string_of_int d.d_frozen))
    (String.concat "," (List.map string_of_int d.d_units))
    (String.concat ";" (List.map lits d.d_clauses))

(* small variable counts so duplicate literals, tautologies, units,
   subsumption and elimination all occur; explicit implication cycles
   give the SCC pass equivalences to find *)
let gen_dcase =
  QCheck.Gen.(
    let* nvars = int_range 1 14 in
    let lit = map2 (fun v neg -> (2 * v) + if neg then 1 else 0)
        (int_bound (nvars - 1)) bool in
    let clause =
      map Array.of_list
        (list_size
           (frequency
              [ (3, return 1); (20, return 2); (30, return 3); (20, return 4);
                (10, return 5) ])
           lit)
    in
    let* plain = list_size (int_range 0 (3 * nvars)) clause in
    let* cycles =
      list_size (int_range 0 2)
        (map
           (fun ls ->
              (* l1 -> l2 -> ... -> l1 as binary clauses (~li v li+1) *)
              match ls with
              | [] -> []
              | first :: _ ->
                let rec edges = function
                  | a :: (b :: _ as rest) -> [| a lxor 1; b |] :: edges rest
                  | [ last ] -> [ [| last lxor 1; first |] ]
                  | [] -> []
                in
                edges ls)
           (list_size (int_range 2 4) lit))
    in
    let* empty = frequency [ (1, return [ [||] ]); (40, return []) ] in
    let* clauses = shuffle_l (plain @ List.concat cycles @ empty) in
    let* units = list_size (int_range 0 2) lit in
    let* frozen = list_size (int_range 0 3) (int_bound (nvars - 1)) in
    let* d_elim = bool in
    let* d_rounds = int_range 1 3 in
    return
      { d_nvars = nvars; d_units = units; d_clauses = clauses; d_elim;
        d_frozen = frozen; d_rounds })

let run_both d =
  let frozen v = List.mem v d.d_frozen in
  ( Simp.run ~elim:d.d_elim ~frozen ~max_rounds:d.d_rounds ~nvars:d.d_nvars
      ~units:d.d_units ~clauses:d.d_clauses (),
    Simp_ref.run ~elim:d.d_elim ~frozen ~max_rounds:d.d_rounds
      ~nvars:d.d_nvars ~units:d.d_units ~clauses:d.d_clauses () )

let simp_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"Simp.run = reference on every field"
    (QCheck.make ~print:print_dcase gen_dcase)
    (fun d ->
       let a, b = run_both d in
       match result_diff a b with
       | None -> true
       | Some field -> QCheck.Test.fail_reportf "%s differs" field)

(* the bit-blast CNF of a Table 2 row, units split off as CDCL hands
   them to Simp *)
let bitblast_cnf (circuit, prop, bound) =
  let inst = Registry.instance ~circuit ~prop ~bound in
  let bb = Bitblast.encode (Unroll.combo inst.Bmc.unrolled) in
  Bitblast.assume_bool bb inst.Bmc.violation true;
  let nvars, cls = Dimacs.parse (Bitblast.to_dimacs bb) in
  let units, clauses =
    List.partition_map
      (function [ u ] -> Either.Left (l u) | c -> Either.Right (clause c))
      cls
  in
  (nvars, units, clauses)

let test_reference_on_bitblast_rows () =
  List.iter
    (fun ((c, p, k) as row) ->
       let nvars, units, clauses = bitblast_cnf row in
       List.iter
         (fun elim ->
            let a = Simp.run ~elim ~nvars ~units ~clauses () in
            let b = Simp_ref.run ~elim ~nvars ~units ~clauses () in
            check_string
              (Printf.sprintf "%s_%s(%d) elim=%b" c p k elim)
              "equal" (diff_label a b))
         [ true; false ])
    [ ("b04", "1", 50); ("b13", "2", 50); ("b13", "8", 50) ]

(* solve a Simp result with a plain CDCL solver; Sat models are
   extended back to the input variables *)
let solve_result ~nvars r =
  if r.Simp.r_unsat then None
  else begin
    let s = Cdcl.create () in
    for _ = 1 to nvars do ignore (Cdcl.new_var s) done;
    List.iter (fun u -> Cdcl.add_clause s [ u ]) r.Simp.r_units;
    List.iter (fun c -> Cdcl.add_clause s (Array.to_list c)) r.Simp.r_clauses;
    match Cdcl.solve s with
    | Cdcl.Sat ->
      let model = Array.init nvars (Cdcl.value s) in
      Simp.extend_model r model;
      Some model
    | _ -> None
  end

let satisfies model units clauses =
  let lit_true x = model.(x lsr 1) = (x land 1 = 0) in
  List.for_all lit_true units
  && List.for_all (fun c -> Array.exists lit_true c) clauses

let test_stop_after_first_normalize () =
  (* the transition relation of b04_1(10) without the violation: a
     satisfiable CNF on which every pass has work to do *)
  let inst = Registry.instance ~circuit:"b04" ~prop:"1" ~bound:10 in
  let bb = Bitblast.encode (Unroll.combo inst.Bmc.unrolled) in
  let nvars, cls = Dimacs.parse (Bitblast.to_dimacs bb) in
  let clauses = List.map clause cls in
  let polls = ref 0 in
  let r =
    Simp.run ~stop:(fun () -> incr polls; true) ~nvars ~units:[] ~clauses ()
  in
  check_int "no round started" 0 r.Simp.r_stats.Simp.rounds;
  check_int "polled once" 1 !polls;
  (* ending after the first normalize is what zero rounds of the
     reference pipeline compute *)
  let b = Simp_ref.run ~max_rounds:0 ~nvars ~units:[] ~clauses () in
  check_string "equals the normalized input" "equal" (diff_label r b);
  match solve_result ~nvars r with
  | None -> Alcotest.fail "stopped result lost satisfiability"
  | Some model ->
    check_bool "model extends to the input" true
      (satisfies model [] clauses)

(* a stop that fires at an arbitrary poll, inside a pass or between
   passes, still leaves an equisatisfiable, reconstructible formula *)
let stopped_runs_stay_sound =
  QCheck.Test.make ~count:500 ~name:"stopped runs stay equisatisfiable"
    (QCheck.make
       ~print:(fun (d, k) -> Printf.sprintf "stop at poll %d, %s" k (print_dcase d))
       QCheck.Gen.(pair gen_dcase (int_range 1 6)))
    (fun (d, k) ->
       let frozen v = List.mem v d.d_frozen in
       let polls = ref 0 in
       let stop () = incr polls; !polls >= k in
       let run ?stop () =
         Simp.run ?stop ~elim:d.d_elim ~frozen ~max_rounds:d.d_rounds
           ~nvars:d.d_nvars ~units:d.d_units ~clauses:d.d_clauses ()
       in
       let full = solve_result ~nvars:d.d_nvars (run ()) in
       let cut = solve_result ~nvars:d.d_nvars (run ~stop ()) in
       match (full, cut) with
       | None, None -> true
       | Some _, Some m -> satisfies m d.d_units d.d_clauses
       | _ -> false)

(* ---- CDCL end-to-end: on/off equivalence with model checking ---- *)

(* deterministic random k-CNF text; small enough that both arms always
   decide *)
let random_cnf ~seed ~nvars ~nclauses =
  let rng = Random.State.make [| 0x51a9; seed |] in
  let b = Buffer.create 256 in
  Printf.bprintf b "p cnf %d %d\n" nvars nclauses;
  for _ = 1 to nclauses do
    let len = 1 + Random.State.int rng 3 in
    for _ = 1 to len do
      let v = 1 + Random.State.int rng nvars in
      Printf.bprintf b "%d "
        (if Random.State.bool rng then v else -v)
    done;
    Buffer.add_string b "0\n"
  done;
  Buffer.contents b

let test_solve_text_on_off_agree () =
  for seed = 0 to 39 do
    let text = random_cnf ~seed ~nvars:12 ~nclauses:(20 + seed) in
    let _, cls = Dimacs.parse text in
    let verdict = function
      | `Sat _ -> "sat" | `Unsat -> "unsat" | `Timeout -> "timeout"
    in
    let on = Dimacs.solve_text ~simplify:true text in
    let off = Dimacs.solve_text ~simplify:false text in
    check_string
      (Printf.sprintf "seed %d verdicts agree" seed)
      (verdict off) (verdict on);
    (* a Sat model from the simplified solve must check out against
       the *original* clauses: this exercises SCC substitution and
       variable-elimination reconstruction end to end *)
    (match on with
     | `Sat model ->
       check_bool
         (Printf.sprintf "seed %d reconstructed model satisfies input" seed)
         true (sat_under model cls)
     | _ -> ());
    match Dimacs.solve_text ~simplify:true ~inprocess:16 text with
    | `Timeout -> Alcotest.fail "inprocessing timed out a tiny CNF"
    | v ->
      check_string
        (Printf.sprintf "seed %d inprocessing verdict" seed)
        (verdict off) (verdict v)
  done

(* ---- DIMACS round trip ---- *)

let bitblast_instance inst =
  let bb = Bitblast.encode (Unroll.combo inst.Bmc.unrolled) in
  Bitblast.assume_bool bb inst.Bmc.violation true;
  bb

let test_dimacs_roundtrip () =
  (* the exported CNF of a bit-blasted instance must parse back and
     solve to the same verdict as the in-memory clause database *)
  List.iter
    (fun (circuit, prop, bound) ->
       let inst = Registry.instance ~circuit ~prop ~bound in
       let bb = bitblast_instance inst in
       let text = Bitblast.to_dimacs bb in
       let nvars, cls = Dimacs.parse text in
       check_bool "variables declared" true (nvars > 0);
       check_bool "clauses exported" true (List.length cls > 0);
       let direct =
         match Bitblast.solve bb with
         | Bitblast.Sat -> "sat"
         | Bitblast.Unsat -> "unsat"
         | Bitblast.Timeout -> "timeout"
       in
       let roundtrip =
         match Dimacs.solve_text text with
         | `Sat _ -> "sat" | `Unsat -> "unsat" | `Timeout -> "timeout"
       in
       check_string
         (Printf.sprintf "%s_%s(%d) round trip" circuit prop bound)
         direct roundtrip)
    [ ("b01", "1", 4); ("b02", "1", 4); ("b13", "5", 3) ]

let expect_parse_error ~line ~needle text =
  match Dimacs.parse text with
  | _ -> Alcotest.failf "parse accepted malformed input (%s)" needle
  | exception Failure msg ->
    let prefix = Printf.sprintf "line %d:" line in
    let has s =
      let n = String.length msg and k = String.length s in
      let rec at i = i + k <= n && (String.sub msg i k = s || at (i + 1)) in
      at 0
    in
    check_bool (Printf.sprintf "%S carries %S" msg prefix) true (has prefix);
    check_bool (Printf.sprintf "%S mentions %S" msg needle) true (has needle)

let test_dimacs_errors () =
  expect_parse_error ~line:1 ~needle:"bad problem line" "p cnf x\n1 0\n";
  expect_parse_error ~line:2 ~needle:"bad variable count" "c ok\np cnf -1 2\n";
  expect_parse_error ~line:1 ~needle:"clause before the problem line" "1 2 0\n";
  expect_parse_error ~line:2 ~needle:"bad literal" "p cnf 2 1\n1 two 0\n";
  expect_parse_error ~line:3 ~needle:"exceeds declared variables"
    "p cnf 2 2\n1 2 0\n3 0\n";
  expect_parse_error ~line:1 ~needle:"missing problem line" "c nothing else\n"

(* ---- hybrid clause database ---- *)

(* a problem with redundant bound atoms: x <= 5 subsumes x <= 9 at the
   clause level once both appear, and the solve must agree with the
   un-simplified one *)
let hybrid_problem () =
  let p = P.create () in
  let a = P.new_bool p ~name:"a" () in
  let x = P.new_word p ~name:"x" (I.make 0 100) in
  let y = P.new_word p ~name:"y" (I.make 0 100) in
  P.add_constr p (T.Lin_le (T.lin_of_terms [ (1, x); (1, y) ] 90));
  P.add_constr p (T.Lin_le (T.lin_of_terms [ (1, y); (-1, x) ] 10));
  ignore a;
  p

let test_hybrid_on_off_same_result () =
  let on =
    Solver.solve_problem
      ~options:{ Solver.hdpll_sp with Solver.simplify = true }
      (hybrid_problem ())
  in
  let off =
    Solver.solve_problem
      ~options:{ Solver.hdpll_sp with Solver.simplify = false }
      (hybrid_problem ())
  in
  check_bool "same verdict" true
    ((match on.Solver.result with Solver.Sat _ -> "sat" | Solver.Unsat -> "unsat" | _ -> "to")
     = (match off.Solver.result with Solver.Sat _ -> "sat" | Solver.Unsat -> "unsat" | _ -> "to"))

let test_hybrid_phase_instrumented () =
  (* the simplify phase must be entered and its counters surfaced when
     an obs handle is attached.  bound 10 (not 5): b13_1(5) is decided
     at the root by predicate learning, which short-circuits before the
     pre-search simplification hook — the phase is only entered on
     instances that actually reach the search loop *)
  let obs = Obs.create () in
  let inst = Registry.instance ~circuit:"b13" ~prop:"1" ~bound:10 in
  let r =
    Engines.run_instance
      ~req:(Rtlsat_harness.Req.make ~timeout:20.0 ~obs ())
      Engines.Hdpll_sp inst
  in
  check_bool "decided" true
    (match r.Engines.verdict with
     | Engines.Sat | Engines.Unsat -> true
     | _ -> false);
  let s = Obs.snapshot obs in
  let _, _, calls =
    List.find (fun (n, _, _) -> n = "simplify") s.Obs.phases
  in
  check_bool "simplify phase entered" true (calls >= 1)

let test_bitblast_sweep_counts_preprocessing () =
  (* every incremental bit-blast step preprocesses without
     elimination; its work must reach the counters like a one-shot
     solve's does *)
  let obs = Obs.create () in
  let source, props = Registry.build "b13" in
  let steps =
    Engines.run_sweep
      ~req:(Rtlsat_harness.Req.make ~timeout:20.0 ~obs ())
      Engines.Bitblast source ~prop:(List.assoc "1" props) ~bounds:[ 5; 10 ]
  in
  check_int "two steps" 2 (List.length steps);
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.snapshot obs).Obs.counter_values)
  in
  check_bool "equivalences counted" true (counter "simplify.equivs" > 0);
  check_bool "subsumption counted" true (counter "simplify.subsumed" > 0);
  check_int "no elimination in a sweep" 0 (counter "simplify.eliminated")

let test_engine_simplify_off_matches_seed_behaviour () =
  (* --no-simplify must reproduce the prior solver exactly: same
     verdict, same decision/conflict counts with and without the new
     code path for a deterministic instance *)
  let inst () = Registry.instance ~circuit:"b13" ~prop:"1" ~bound:10 in
  let off =
    Engines.run_instance
      ~req:(Rtlsat_harness.Req.make ~timeout:60.0 ~simplify:false ())
      Engines.Hdpll_sp (inst ())
  in
  let on =
    Engines.run_instance
      ~req:(Rtlsat_harness.Req.make ~timeout:60.0 ())
      Engines.Hdpll_sp (inst ())
  in
  check_string "verdicts equal"
    (Engines.verdict_symbol off.Engines.verdict)
    (Engines.verdict_symbol on.Engines.verdict);
  check_bool "off arm decided" true (off.Engines.verdict = Engines.Unsat)

(* ---- the lock-in property: simplify on/off verdict agreement ---- *)

(* every engine, simplify on vs off (plus the bit-blast export through
   the DIMACS front end, on and off): all non-timeout verdicts on a
   random circuit must agree.  Sat answers are only reported after the
   witness replayed through the simulator inside [run_instance], so an
   unsound reconstruction surfaces as Abort and fails the property. *)
let simplify_verdict_agreement =
  QCheck.Test.make ~count:30 ~name:"simplify on/off verdicts agree"
    QCheck.(small_nat)
    (fun seed ->
       let case =
         Gen.circuit ~seed ~cfg:{ Gen.default with Gen.max_nodes = 10 } ()
       in
       let inst = Case.instance case in
       let module E = Engines in
       let run simplify engine =
         (E.run_instance
            ~req:(Rtlsat_harness.Req.make ~timeout:2.0 ~simplify ())
            engine inst)
           .E.verdict
       in
       let engine_vs =
         List.concat_map
           (fun e -> [ run true e; run false e ])
           [ E.Hdpll; E.Hdpll_s; E.Hdpll_p; E.Hdpll_sp; E.Bitblast ]
       in
       let dimacs_vs =
         let text = Bitblast.to_dimacs (bitblast_instance inst) in
         List.map
           (fun simplify ->
              match Dimacs.solve_text ~deadline:(Unix.gettimeofday () +. 2.0)
                      ~simplify text with
              | `Sat _ -> E.Sat
              | `Unsat -> E.Unsat
              | `Timeout -> E.Timeout)
           [ true; false ]
       in
       let vs = engine_vs @ dimacs_vs in
       if List.exists (function E.Abort _ -> true | _ -> false) vs then false
       else
         match
           List.filter (function E.Sat | E.Unsat -> true | _ -> false) vs
         with
         | [] -> true (* timeouts never count as disagreement *)
         | v :: rest -> List.for_all (( = ) v) rest)

let () =
  Alcotest.run "simplify"
    [
      ( "passes",
        [
          Alcotest.test_case "subsumption" `Quick test_subsumption;
          Alcotest.test_case "self-subsumption" `Quick test_self_subsumption;
          Alcotest.test_case "variable elimination + reconstruction" `Quick
            test_variable_elimination_and_reconstruction;
          Alcotest.test_case "failed literal" `Quick test_failed_literal;
          Alcotest.test_case "scc equivalence" `Quick test_scc_equivalence;
          Alcotest.test_case "scc unsat" `Quick test_scc_detects_unsat;
          Alcotest.test_case "frozen variables" `Quick
            test_frozen_never_eliminated;
        ] );
      ( "reference",
        [
          Alcotest.test_case "bit-blast rows equal the reference" `Quick
            test_reference_on_bitblast_rows;
          Alcotest.test_case "stop ends after the first normalize" `Quick
            test_stop_after_first_normalize;
        ] );
      Qutil.qsuite "differential"
        [ simp_matches_reference; stopped_runs_stay_sound ];
      ( "cdcl",
        [
          Alcotest.test_case "on/off + models on random CNF" `Quick
            test_solve_text_on_off_agree;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "round trip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "malformed input errors" `Quick test_dimacs_errors;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "on/off same result" `Quick
            test_hybrid_on_off_same_result;
          Alcotest.test_case "phase instrumented" `Quick
            test_hybrid_phase_instrumented;
          Alcotest.test_case "bit-blast sweep counts preprocessing" `Quick
            test_bitblast_sweep_counts_preprocessing;
          Alcotest.test_case "off reproduces seed behaviour" `Quick
            test_engine_simplify_off_matches_seed_behaviour;
        ] );
      Qutil.qsuite "equivalence" [ simplify_verdict_agreement ];
    ]
