(* Tests for the experiment harness, the k-induction engine, the
   randomized decision strategy and the learned-clause checker. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Sim = Rtlsat_rtl.Sim
module T = Rtlsat_constr.Types
module E = Rtlsat_constr.Encode
module Unroll = Rtlsat_bmc.Unroll
module Bmc = Rtlsat_bmc.Bmc
module Registry = Rtlsat_itc99.Registry
module Engines = Rtlsat_harness.Engines
module Tables = Rtlsat_harness.Tables
module Induction = Rtlsat_harness.Induction
module Solver = Rtlsat_core.Solver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- engines ---- *)

let test_engine_names () =
  Alcotest.(check (list string)) "table2 column order"
    [ "hdpll"; "hdpll+s"; "hdpll+s+p"; "bitblast"; "lazy-cdp" ]
    (List.map Engines.engine_name Engines.table2_engines)

let test_verdict_symbols () =
  Alcotest.(check string) "S" "S" (Engines.verdict_symbol Engines.Sat);
  Alcotest.(check string) "U" "U" (Engines.verdict_symbol Engines.Unsat);
  Alcotest.(check string) "to" "-to-" (Engines.verdict_symbol Engines.Timeout);
  Alcotest.(check string) "A" "-A-" (Engines.verdict_symbol (Engines.Abort "x"))

let test_run_instance_validates_witness () =
  let inst = Registry.instance ~circuit:"b13" ~prop:"40" ~bound:13 in
  let r =
    Engines.run_instance
      ~req:(Rtlsat_harness.Req.make ~timeout:60.0 ())
      Engines.Hdpll_sp inst
  in
  check_bool "sat (so the witness replayed)" true (r.Engines.verdict = Engines.Sat)

(* ---- tables ---- *)

let test_table_instances_well_formed () =
  List.iter
    (fun (c, p, b) ->
       check_bool
         (Printf.sprintf "%s_%s(%d) exists" c p b)
         true
         (match Registry.instance ~circuit:c ~prop:p ~bound:b with
          | _ -> true
          | exception Not_found -> false))
    (Tables.table1_instances `Scaled @ Tables.table2_instances `Scaled);
  check_bool "full supersets scaled (t1)" true
    (List.length (Tables.table1_instances `Full)
     >= List.length (Tables.table1_instances `Scaled));
  check_bool "full supersets scaled (t2)" true
    (List.length (Tables.table2_instances `Full)
     >= List.length (Tables.table2_instances `Scaled))

let test_run_row () =
  let row =
    Tables.run_row ~timeout:60.0 ~engines:[ Engines.Hdpll; Engines.Hdpll_s ]
      ("b04", "1", 5)
  in
  Alcotest.(check string) "label" "b04_1(5)" row.Tables.t2_label;
  check_bool "decided" true (row.Tables.t2_type = Engines.Unsat);
  check_int "two runs" 2 (List.length row.Tables.t2_runs);
  check_bool "op counts positive" true (row.Tables.t2_arith > 0 && row.Tables.t2_bool > 0);
  (* the printer doesn't raise *)
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Tables.print_table2 fmt [ row ];
  Format.pp_print_flush fmt ();
  check_bool "printed something" true (Buffer.length buf > 0)

(* ---- k-induction ---- *)

let test_induction_proves_invariant () =
  (* b04_1 (RMAX >= RMIN in RUN) is inductive at small k *)
  let c, props = Registry.build "b04" in
  let p = List.assoc "1" props in
  match Induction.prove ~max_k:5 c ~prop:p with
  | Induction.Proved k -> check_bool "small k" true (k <= 5)
  | _ -> Alcotest.fail "expected Proved"

let test_induction_falsifies () =
  (* b04_2 (spread != 255) is violable from reset *)
  let c, props = Registry.build "b04" in
  let p = List.assoc "2" props in
  match Induction.prove ~max_k:6 c ~prop:p with
  | Induction.Falsified k -> check_bool "found within bound" true (k <= 6)
  | _ -> Alcotest.fail "expected Falsified"

let test_induction_control_only () =
  (* the receive-FSM encoding invariant of b13 is inductive *)
  let c, props = Registry.build "b13" in
  let p = List.assoc "3" props in
  match Induction.prove ~max_k:4 c ~prop:p with
  | Induction.Proved _ -> ()
  | _ -> Alcotest.fail "expected Proved"

let test_induction_unknown_on_budget () =
  (* with max_k 0 the loop cannot even start *)
  let c, props = Registry.build "b04" in
  let p = List.assoc "1" props in
  check_bool "unknown" true (Induction.prove ~max_k:0 c ~prop:p = Induction.Unknown)

let test_induction_falsified_depths () =
  (* the base case finds the shortest counterexample from reset *)
  List.iter
    (fun (circuit, prop, depth) ->
       let c, props = Registry.build circuit in
       match Induction.prove ~max_k:10 c ~prop:(List.assoc prop props) with
       | Induction.Falsified k -> check_int (circuit ^ "_" ^ prop) depth k
       | _ -> Alcotest.fail (circuit ^ "_" ^ prop ^ ": expected Falsified"))
    [ ("b01", "1", 9); ("b02", "3", 4); ("b04", "2", 3) ]

let test_induction_honours_deadline () =
  (* with a zero budget every call that needs a search step times out,
     and the first one ends the proof with that verdict *)
  let c, props = Registry.build "b13" in
  match
    Induction.prove ~req:(Rtlsat_harness.Req.make ~timeout:0.0 ()) c
      ~prop:(List.assoc "1" props)
  with
  | Induction.Stopped (_, Engines.Timeout) -> ()
  | _ -> Alcotest.fail "expected Stopped with a timeout"

let test_step_case_witnesses_replay () =
  (* the step case of b13_1 is satisfiable from a free state at every
     depth; each answer counts only if its witness replays from the
     model's initial register values *)
  let c, props = Registry.build "b13" in
  let req = Rtlsat_harness.Req.default in
  let s =
    Engines.session ~req ~semantics:Bmc.First ~free_init:true Engines.Hdpll_sp c
      ~prop:(List.assoc "1" props)
  in
  List.iter
    (fun bound ->
       let r = (Engines.sweep_step ~req s ~bound).Engines.sw_run in
       check_bool (Printf.sprintf "bound %d sat and replayed" bound) true
         (r.Engines.verdict = Engines.Sat);
       check_int "one input valuation per frame" bound
         (List.length r.Engines.witness))
    [ 2; 3; 4; 5 ]

(* ---- randomized decision strategy (§5.1's comparison baseline) ---- *)

let test_random_strategy_agrees () =
  List.iter
    (fun (circuit, prop, bound, expected) ->
       let inst = Registry.instance ~circuit ~prop ~bound in
       let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
       E.assume_bool enc inst.Bmc.violation true;
       let options = { Solver.hdpll with Solver.random_seed = Some 1234 } in
       let { Solver.result; _ } = Solver.solve ~options enc in
       let got = match result with
         | Solver.Sat _ -> `S | Solver.Unsat -> `U | Solver.Timeout -> `T
       in
       check_bool
         (Printf.sprintf "%s_%s(%d)" circuit prop bound)
         true (got = expected))
    [ ("b04", "1", 5, `U); ("b04", "2", 5, `S); ("b13", "40", 13, `S) ]

(* ---- learned-clause checker ("proof logging lite") ----

   Every clause learned while solving is implied by the original
   problem, so any concrete circuit behaviour (which satisfies the
   problem by construction) must satisfy it.  Fuzz the circuit with
   random inputs and evaluate every learned clause. *)

let eval_atom_with env = T.eval_atom env

let test_learned_clauses_sound () =
  let inst = Registry.instance ~circuit:"b13" ~prop:"2" ~bound:20 in
  let combo = Unroll.combo inst.Bmc.unrolled in
  let enc = E.encode combo in
  E.assume_bool enc inst.Bmc.violation true;
  let options = { Solver.hdpll_sp with Solver.collect_learned = true } in
  let { Solver.result = _; learned_clauses; _ } = Solver.solve ~options enc in
  check_bool "learned something" true (List.length learned_clauses > 0);
  (* random concrete behaviours of the circuit, with the violation
     objective satisfied or not — clauses learned from the problem
     including the objective must hold whenever the objective does *)
  let rng = Random.State.make [| 99 |] in
  let trials = ref 0 in
  for _ = 1 to 200 do
    let inputs =
      List.map
        (fun n -> (n, Random.State.int rng (Ir.max_value n + 1)))
        (Ir.inputs combo)
    in
    let vals = Sim.eval combo (Sim.initial_state combo) ~inputs in
    if Sim.value vals inst.Bmc.violation = 1 then begin
      incr trials;
      (* extend node values to auxiliary solver variables: learned
         clauses may mention them, so restrict the check to clauses
         over node-mapped variables *)
      let node_of_var = Array.make (Rtlsat_constr.Problem.n_vars enc.E.problem) None in
      List.iter
        (fun n -> node_of_var.(E.var enc n) <- Some n)
        (Ir.nodes combo);
      let value v = match node_of_var.(v) with
        | Some n -> Some (Sim.value vals n)
        | None -> None
      in
      List.iter
        (fun cl ->
           let all_mapped =
             Array.for_all (fun a -> value (T.atom_var a) <> None) cl
           in
           if all_mapped then begin
             let env v = Option.get (value v) in
             check_bool "learned clause holds on behaviour" true
               (Array.exists (eval_atom_with env) cl)
           end)
        learned_clauses
    end
  done
  (* note: [trials] may be 0 if random inputs never violate; the SAT
     instance chosen makes violations easy to hit *)

let () =
  Alcotest.run "harness"
    [
      ( "engines",
        [
          Alcotest.test_case "names" `Quick test_engine_names;
          Alcotest.test_case "verdict symbols" `Quick test_verdict_symbols;
          Alcotest.test_case "witness validation" `Quick test_run_instance_validates_witness;
        ] );
      ( "tables",
        [
          Alcotest.test_case "instances well-formed" `Quick test_table_instances_well_formed;
          Alcotest.test_case "run_row" `Quick test_run_row;
        ] );
      ( "induction",
        [
          Alcotest.test_case "proves b04_1" `Quick test_induction_proves_invariant;
          Alcotest.test_case "falsifies b04_2" `Quick test_induction_falsifies;
          Alcotest.test_case "proves b13_3" `Quick test_induction_control_only;
          Alcotest.test_case "unknown on zero budget" `Quick test_induction_unknown_on_budget;
          Alcotest.test_case "falsified at the shortest depth" `Quick
            test_induction_falsified_depths;
          Alcotest.test_case "zero timeout stops the proof" `Quick
            test_induction_honours_deadline;
          Alcotest.test_case "step-case witnesses replay" `Quick
            test_step_case_witnesses_replay;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "randomized strategy agrees" `Quick test_random_strategy_agrees;
          Alcotest.test_case "learned clauses sound" `Quick test_learned_clauses_sound;
        ] );
    ]
