(* Tests for the standalone CDCL solver: unit cases and randomized
   equivalence against a brute-force model enumerator. *)

module C = Rtlsat_sat.Cdcl

let check_bool = Alcotest.(check bool)

let mk n_vars clauses =
  let s = C.create () in
  let vars = Array.init n_vars (fun _ -> C.new_var s) in
  List.iter
    (fun cl ->
       C.add_clause s
         (List.map (fun l -> if l > 0 then C.pos vars.(l - 1) else C.neg vars.(-l - 1)) cl))
    clauses;
  (s, vars)

let is_sat = function C.Sat -> true | C.Unsat -> false | C.Timeout -> failwith "timeout"

let test_lit_encoding () =
  Alcotest.(check int) "var" 7 (C.lit_var (C.pos 7));
  Alcotest.(check int) "var neg" 7 (C.lit_var (C.neg 7));
  check_bool "sign" true (C.lit_sign (C.pos 7));
  check_bool "sign neg" false (C.lit_sign (C.neg 7));
  Alcotest.(check int) "double negation" (C.pos 3) (C.lit_not (C.lit_not (C.pos 3)))

let test_trivial_sat () =
  let s, vars = mk 2 [ [ 1; 2 ]; [ -1; 2 ] ] in
  check_bool "sat" true (is_sat (C.solve s));
  check_bool "v2 true" true (C.value s vars.(1))

let test_trivial_unsat () =
  let s, _ = mk 1 [ [ 1 ]; [ -1 ] ] in
  check_bool "unsat" false (is_sat (C.solve s))

let test_empty_clause () =
  let s, _ = mk 1 [ [] ] in
  check_bool "unsat" false (is_sat (C.solve s))

let test_unsat_chain () =
  (* pigeonhole-ish small unsat: x1=x2, x2=x3, x1<>x3 *)
  let s, _ =
    mk 3 [ [ -1; 2 ]; [ 1; -2 ]; [ -2; 3 ]; [ 2; -3 ]; [ 1; 3 ]; [ -1; -3 ] ]
  in
  check_bool "unsat" false (is_sat (C.solve s))

let test_model_satisfies () =
  let clauses = [ [ 1; -2; 3 ]; [ -1; 2 ]; [ 2; 3 ]; [ -3; -2; 1 ] ] in
  let s, vars = mk 3 clauses in
  check_bool "sat" true (is_sat (C.solve s));
  let value l = if l > 0 then C.value s vars.(l - 1) else not (C.value s vars.(-l - 1)) in
  List.iter (fun cl -> check_bool "clause satisfied" true (List.exists value cl)) clauses

let test_assumptions () =
  let s, vars = mk 2 [ [ 1; 2 ] ] in
  check_bool "sat under a" true (is_sat (C.solve ~assumptions:[ C.neg vars.(0) ] s));
  check_bool "v2 forced" true (C.value s vars.(1));
  check_bool "unsat under both neg" false
    (is_sat (C.solve ~assumptions:[ C.neg vars.(0); C.neg vars.(1) ] s));
  (* solver state survives: still sat without assumptions *)
  check_bool "sat again" true (is_sat (C.solve s))

let test_incremental_clauses () =
  let s, vars = mk 2 [ [ 1; 2 ] ] in
  check_bool "sat" true (is_sat (C.solve s));
  C.add_clause s [ C.neg vars.(0) ];
  C.add_clause s [ C.neg vars.(1) ];
  check_bool "now unsat" false (is_sat (C.solve s))

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT needing real search *)
  let var p h = (p * 2) + h + 1 in
  let clauses =
    List.concat_map (fun p -> [ [ var p 0; var p 1 ] ]) [ 0; 1; 2 ]
    @ List.concat_map
        (fun h ->
           [ [ -var 0 h; -var 1 h ]; [ -var 0 h; -var 2 h ]; [ -var 1 h; -var 2 h ] ])
        [ 0; 1 ]
  in
  let s, _ = mk 6 clauses in
  check_bool "php(3,2) unsat" false (is_sat (C.solve s))

let test_timeout () =
  (* php(8,7) is hard enough that a 0-second deadline must trigger *)
  let n = 8 in
  let var p h = (p * (n - 1)) + h + 1 in
  let clauses =
    List.concat_map (fun p -> [ List.init (n - 1) (fun h -> var p h) ])
      (List.init n (fun p -> p))
    @ List.concat_map
        (fun h ->
           List.concat_map
             (fun p1 ->
                List.filter_map
                  (fun p2 -> if p1 < p2 then Some [ -var p1 h; -var p2 h ] else None)
                  (List.init n (fun p -> p)))
             (List.init n (fun p -> p)))
        (List.init (n - 1) (fun h -> h))
  in
  let s, _ = mk (n * (n - 1)) clauses in
  match C.solve ~deadline:(Unix.gettimeofday () -. 1.0) s with
  | C.Timeout -> ()
  | C.Unsat -> () (* solved faster than the first deadline poll: also fine *)
  | C.Sat -> Alcotest.fail "php must not be sat"

(* ---- DIMACS front end ---- *)

module D = Rtlsat_sat.Dimacs

let test_dimacs_parse () =
  let n, cls = D.parse "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  Alcotest.(check int) "vars" 3 n;
  Alcotest.(check int) "clauses" 2 (List.length cls);
  Alcotest.(check (list (list int))) "content" [ [ 1; -2 ]; [ 2; 3 ] ] cls

let test_dimacs_multiline_clause () =
  (* clauses may span lines; a missing final 0 is tolerated *)
  let _, cls = D.parse "p cnf 2 1\n1\n-2\n0\n" in
  Alcotest.(check (list (list int))) "span" [ [ 1; -2 ] ] cls;
  let _, cls = D.parse "p cnf 2 1\n1 2" in
  Alcotest.(check (list (list int))) "no trailing zero" [ [ 1; 2 ] ] cls

let test_dimacs_errors () =
  let expect text =
    match D.parse text with
    | exception Failure m ->
      check_bool "line prefix" true (String.length m > 5 && String.sub m 0 5 = "line ")
    | _ -> Alcotest.fail "expected failure"
  in
  expect "1 2 0\n";                 (* clause before header *)
  expect "p cnf x 2\n";             (* bad count *)
  expect "p cnf 2 1\n1 5 0\n";     (* literal out of range *)
  expect "p cnf 2 1\n1 foo 0\n"    (* bad literal *)

let test_dimacs_solve () =
  (match D.solve_text "p cnf 2 2\n1 2 0\n-1 0\n" with
   | `Sat model ->
     check_bool "model" true (model.(1) && not model.(0))
   | _ -> Alcotest.fail "sat expected");
  (match D.solve_text "p cnf 1 2\n1 0\n-1 0\n" with
   | `Unsat -> ()
   | _ -> Alcotest.fail "unsat expected");
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  D.print_result fmt (`Sat [| true; false |]);
  Format.pp_print_flush fmt ();
  Alcotest.(check string) "v-line" "s SATISFIABLE\nv 1 -2 0\n" (Buffer.contents buf)

let test_clause_access () =
  let s, _ = mk 3 [ [ 1; 2 ]; [ -1; 3 ]; [ 2 ] ] in
  let stored = C.fold_clauses (fun acc _ -> acc + 1) 0 s in
  Alcotest.(check int) "stored clauses" 2 stored;
  Alcotest.(check int) "one root unit" 1 (List.length (C.root_units s))

(* ---- randomized equivalence with brute force ---- *)

let brute_force n_vars clauses =
  let sat = ref false in
  for m = 0 to (1 lsl n_vars) - 1 do
    if not !sat then begin
      let value l =
        let v = abs l - 1 in
        let bit = (m lsr v) land 1 = 1 in
        if l > 0 then bit else not bit
      in
      if List.for_all (fun cl -> List.exists value cl) clauses then sat := true
    end
  done;
  !sat

let gen_cnf =
  QCheck.make
    ~print:(fun (n, cls) ->
        Printf.sprintf "n=%d cls=[%s]" n
          (String.concat ";"
             (List.map (fun cl -> String.concat "," (List.map string_of_int cl)) cls)))
    QCheck.Gen.(
      let* n = int_range 3 8 in
      let* n_clauses = int_range 1 30 in
      let gen_lit = map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound (n - 1)) bool in
      let gen_clause = list_size (int_range 1 4) gen_lit in
      let* cls = list_size (return n_clauses) gen_clause in
      return (n, cls))

let prop_matches_brute_force =
  QCheck.Test.make ~name:"CDCL = brute force" ~count:400 gen_cnf
    (fun (n, clauses) ->
       let s, vars = mk n clauses in
       let r = is_sat (C.solve s) in
       let bf = brute_force n clauses in
       if r <> bf then false
       else if r then begin
         (* verify the model *)
         let value l =
           if l > 0 then C.value s vars.(l - 1) else not (C.value s vars.(-l - 1))
         in
         List.for_all (fun cl -> List.exists value cl) clauses
       end
       else true)

let prop_assumptions_sound =
  QCheck.Test.make ~name:"assumptions = added units" ~count:200
    (QCheck.pair gen_cnf (QCheck.list_of_size (QCheck.Gen.return 2) QCheck.bool))
    (fun ((n, clauses), signs) ->
       let s1, vars1 = mk n clauses in
       let assumptions =
         List.mapi (fun i b -> if b then C.pos vars1.(i) else C.neg vars1.(i)) signs
       in
       let r1 = is_sat (C.solve ~assumptions s1) in
       let s2, _ = mk n clauses in
       List.iteri
         (fun i b -> C.add_clause s2 [ (if b then C.pos i else C.neg i) ])
         signs;
       let r2 = is_sat (C.solve s2) in
       r1 = r2)

(* ---- lockstep against the list-based kernel ---- *)

(* [Cdcl_ref] is a frozen copy of the solver before its allocation-free
   rewrite; both must run the same search, so every counter, model and
   stored clause (literal order included) must agree after every step *)
module R = Cdcl_ref

let outcome_c = function C.Sat -> "sat" | C.Unsat -> "unsat" | C.Timeout -> "timeout"
let outcome_r = function R.Sat -> "sat" | R.Unsat -> "unsat" | R.Timeout -> "timeout"

let same_state msg s r =
  let ctx what = Printf.sprintf "%s: %s" msg what in
  Alcotest.(check int) (ctx "conflicts") (R.n_conflicts r) (C.n_conflicts s);
  Alcotest.(check int) (ctx "learned") (R.n_learned r) (C.n_learned s);
  Alcotest.(check (array bool)) (ctx "model") (R.model r) (C.model s);
  Alcotest.(check (list int)) (ctx "root units") (R.root_units r) (C.root_units s);
  let clauses fold x = List.rev (fold (fun acc c -> Array.to_list c :: acc) [] x) in
  Alcotest.(check (list (list int))) (ctx "clauses")
    (clauses R.fold_clauses r) (clauses C.fold_clauses s)

(* 3-CNF near the threshold plus a few long clauses *)
let random_cnf st n =
  let lit () =
    let v = Random.State.int st n in
    if Random.State.bool st then C.pos v else C.neg v
  in
  let m = (426 * n / 100) + Random.State.int st 8 - 4 in
  List.init m (fun _ -> List.init 3 (fun _ -> lit ()))
  @ List.init (1 + (n / 10)) (fun _ ->
      List.init (5 + Random.State.int st 8) (fun _ -> lit ()))

let lockstep_script seed =
  let st = Random.State.make [| seed |] in
  let n = 20 + Random.State.int st 60 in
  let cnf = random_cnf st n in
  let first, later = List.partition (fun _ -> Random.State.int st 10 < 7) cnf in
  let s = C.create () and r = R.create () in
  for _ = 1 to n do
    ignore (C.new_var s);
    ignore (R.new_var r)
  done;
  let msg step = Printf.sprintf "seed %d, %s" seed step in
  let add cls =
    List.iter (fun c -> C.add_clause s c; R.add_clause r c) cls
  in
  let solve ?assumptions ?inprocess step =
    Alcotest.(check string) (msg step)
      (outcome_r (R.solve ?assumptions ?inprocess r))
      (outcome_c (C.solve ?assumptions ?inprocess s));
    same_state (msg step) s r
  in
  add first;
  same_state (msg "add") s r;
  solve "solve";
  let assumptions =
    List.init 3 (fun _ ->
        let v = Random.State.int st n in
        if Random.State.bool st then C.pos v else C.neg v)
  in
  solve ~assumptions "assumptions";
  add later;
  same_state (msg "add more") s r;
  solve "solve again";
  C.simplify ~elim:false s;
  R.simplify ~elim:false r;
  same_state (msg "simplify") s r;
  solve ~inprocess:20 "inprocess"

let test_lockstep_random () =
  for seed = 1 to 300 do
    lockstep_script seed
  done

module Bb = Rtlsat_baselines.Bitblast
module Registry = Rtlsat_itc99.Registry

(* the bit-blast CNF of an ITC'99 row, loaded into both kernels, then
   one-shot simplified and solved as the bitblast engine does *)
let test_lockstep_bitblast () =
  List.iter
    (fun (circuit, prop) ->
       let inst = Registry.instance ~circuit ~prop ~bound:30 in
       let bb = Bb.encode (Rtlsat_bmc.Unroll.combo inst.Rtlsat_bmc.Bmc.unrolled) in
       Bb.assume_bool bb inst.Rtlsat_bmc.Bmc.violation true;
       let src = Bb.solver bb in
       let s = C.create () and r = R.create () in
       for _ = 1 to C.n_vars src do
         ignore (C.new_var s);
         ignore (R.new_var r)
       done;
       let load c = C.add_clause s c; R.add_clause r c in
       List.iter (fun l -> load [ l ]) (C.root_units src);
       C.fold_clauses (fun () c -> load (Array.to_list c)) () src;
       C.simplify ~elim:true s;
       R.simplify ~elim:true r;
       let row = Printf.sprintf "%s_%s(30)" circuit prop in
       Alcotest.(check string) row (outcome_r (R.solve r)) (outcome_c (C.solve s));
       check_bool (row ^ " searched") true (C.n_conflicts s > 0);
       same_state row s r)
    [ ("b13", "1"); ("b13", "8") ]

(* ---- the search policy both kernels share ---- *)

module Search = Rtlsat_sat.Search
module Heap = Rtlsat_sat.Heap

let test_luby () =
  Alcotest.(check (list int))
    "prefix"
    [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ]
    (List.init 15 Search.luby)

let test_heap () =
  let act = [| 3.0; 1.0; 4.0; 1.5; 9.0; 2.0 |] in
  let h = Heap.create () in
  Array.iteri (fun v _ -> Heap.insert h act v) act;
  Heap.insert h act 2;
  Alcotest.(check int) "duplicate insert" 6 (Heap.size h);
  let drain () = List.init (Heap.size h) (fun _ -> Heap.pop h act) in
  Alcotest.(check (list int)) "pop order" [ 4; 2; 0; 5; 3; 1 ] (drain ());
  check_bool "empty" true (Heap.is_empty h);
  Array.iteri (fun v _ -> Heap.insert h act v) act;
  act.(1) <- 10.0;
  Heap.bumped h act 1;
  Alcotest.(check int) "bumped to the top" 1 (Heap.pop h act);
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h && not (Heap.mem h 4));
  List.iter (Heap.insert h act) [ 3; 0 ];
  Alcotest.(check (list int)) "reinsert after clear" [ 0; 3 ] (drain ());
  check_bool "mem past capacity" false (Heap.mem h 1_000_000)

let test_bump_rescale () =
  let act = [| 1e100; 5e99; 1.0; 0.0 |] in
  let h = Heap.create () in
  Array.iteri (fun v _ -> Heap.insert h act v) act;
  let inc = Search.bump h act ~nvars:4 2.0 2 in
  Alcotest.(check (float 0.)) "below the threshold" 2.0 inc;
  Alcotest.(check (float 0.)) "bumped" 3.0 act.(2);
  let inc = Search.bump h act ~nvars:4 6e99 1 in
  Alcotest.(check (float 1e-12)) "increment scaled" 0.6 inc;
  Alcotest.(check (float 1e-12)) "bumped then scaled" 1.1 act.(1);
  Alcotest.(check (float 1e-12)) "others scaled" 1.0 act.(0);
  Alcotest.(check (list int)) "order kept" [ 1; 0; 2; 3 ]
    (List.init 4 (fun _ -> Heap.pop h act))

module Recorder = Rtlsat_obs.Recorder
module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json

(* the (num, conflicts) of every restart event a recorder holds *)
let restarts_of rec_ =
  let out = ref [] in
  Recorder.iter rec_ (fun e ->
      if e.Recorder.e_ev = "restart" then
        match List.assoc "num" e.Recorder.e_fields,
              List.assoc "conflicts" e.Recorder.e_fields with
        | Json.Int n, Json.Int c -> out := (n, c) :: !out
        | _ -> Alcotest.fail "restart fields");
  List.rev !out

(* both kernels restart on the one Luby schedule: restart k is numbered
   k and fires no earlier than 100 * (luby 0 + ... + luby (k-1))
   conflicts into the call *)
let test_restart_schedule () =
  let inst = Registry.instance ~circuit:"b13" ~prop:"2" ~bound:50 in
  let combo = Rtlsat_bmc.Unroll.combo inst.Rtlsat_bmc.Bmc.unrolled in
  let recorded run =
    let r = Recorder.create ~cap:(1 lsl 20) () in
    let obs = Obs.create ~recorder:r () in
    run obs;
    restarts_of r
  in
  let hybrid =
    recorded (fun obs ->
        let module E = Rtlsat_constr.Encode in
        let module Solver = Rtlsat_core.Solver in
        let enc = E.encode combo in
        E.assume_bool enc inst.Rtlsat_bmc.Bmc.violation true;
        let o = Solver.solve ~options:{ Solver.hdpll_sp with Solver.obs } enc in
        check_bool "hybrid unsat" true (o.Solver.result = Solver.Unsat))
  in
  let blast =
    recorded (fun obs ->
        let bb = Bb.encode combo in
        Bb.assume_bool bb inst.Rtlsat_bmc.Bmc.violation true;
        Bb.simplify ~elim:true bb;
        check_bool "bit-blast unsat" true
          (C.solve ~obs (Bb.solver bb) = C.Unsat))
  in
  List.iter
    (fun (kernel, rs) ->
       check_bool (kernel ^ " restarts several times") true (List.length rs >= 3);
       ignore
         (List.fold_left
            (fun (k, due) (num, conflicts) ->
               Alcotest.(check int) (kernel ^ " restart number") k num;
               let due = due + (100 * Search.luby (k - 1)) in
               check_bool
                 (Printf.sprintf "%s restart %d at %d >= %d conflicts" kernel k
                    conflicts due)
                 true (conflicts >= due);
               (k + 1, due))
            (1, 0) rs))
    [ ("hybrid", hybrid); ("bit-blast", blast) ]

let qsuite = Qutil.qsuite

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "literal encoding" `Quick test_lit_encoding;
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "equality chain unsat" `Quick test_unsat_chain;
          Alcotest.test_case "model satisfies clauses" `Quick test_model_satisfies;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental clauses" `Quick test_incremental_clauses;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "clause access" `Quick test_clause_access;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "multiline clauses" `Quick test_dimacs_multiline_clause;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "solve & print" `Quick test_dimacs_solve;
        ] );
      qsuite "props" [ prop_matches_brute_force; prop_assumptions_sound ];
      ( "lockstep",
        [
          Alcotest.test_case "random scripts" `Quick test_lockstep_random;
          Alcotest.test_case "bitblast b13 rows" `Quick test_lockstep_bitblast;
        ] );
      ( "search policy",
        [
          Alcotest.test_case "luby prefix" `Quick test_luby;
          Alcotest.test_case "activity heap" `Quick test_heap;
          Alcotest.test_case "bump rescales at 1e100" `Quick test_bump_rescale;
          Alcotest.test_case "both kernels restart on luby" `Quick
            test_restart_schedule;
        ] );
    ]
