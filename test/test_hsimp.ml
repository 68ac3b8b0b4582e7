(* The hybrid clause-database simplifier (Hsimp): fixed cases pinning
   what a pass may and may not do, and a differential suite driving
   Hsimp and the frozen reference (Hsimp_ref, over the frozen list
   kernel State_ref) in lockstep over random multi-call session
   histories. *)

module P = Rtlsat_constr.Problem
module T = Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec
module I = Rtlsat_interval.Interval
module State = Rtlsat_core.State
module Hsimp = Rtlsat_core.Hsimp
module Hsimp_ref = Frozen_kernel.Hsimp_ref
module State_ref = Frozen_kernel.State_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let clauses s = List.init s.State.n_clauses (State.clause s)

let atom_str = function
  | T.Pos v -> Printf.sprintf "b%d" v
  | T.Neg v -> Printf.sprintf "!b%d" v
  | T.Ge (v, k) -> Printf.sprintf "w%d>=%d" v k
  | T.Le (v, k) -> Printf.sprintf "w%d<=%d" v k

let clause_str cl = String.concat "|" (List.map atom_str (Array.to_list cl))
let db_str s = String.concat " " (List.map clause_str (clauses s))
let check_db msg expected s = Alcotest.(check string) msg expected (db_str s)

(* x: word in [0, 15]; b, c: Booleans *)
let fixture () =
  let p = P.create () in
  let x = P.new_word p ~name:"x" (I.make 0 15) in
  let b = P.new_bool p ~name:"b" () in
  let c = P.new_bool p ~name:"c" () in
  (p, x, b, c)

(* ---- fixed cases ---- *)

let test_interval_subsumption () =
  let p, x, b, c = fixture () in
  let s = State.create p in
  State.add_clause s [| T.Le (x, 5); T.Pos b |];
  State.add_clause s [| T.Le (x, 9); T.Pos b; T.Pos c |];
  let st = Hsimp.run s in
  check_int "one clause subsumed" 1 st.Hsimp.subsumed;
  check_int "nothing strengthened" 0 st.Hsimp.strengthened;
  check_db "x<=5 ∨ b kills x<=9 ∨ b ∨ c" "w0<=5|b1" s

let test_strengthening () =
  let p, x, b, c = fixture () in
  P.add_clause p [| T.Le (x, 5); T.Pos b |];
  let s = State.create p in
  State.add_clause s [| T.Ge (x, 7); T.Pos b; T.Pos c |];
  let st = Hsimp.run s in
  check_int "one atom dropped" 1 st.Hsimp.strengthened;
  check_int "nothing deleted" 0 st.Hsimp.subsumed;
  check_db "x>=7 resolves away against x<=5" "w0<=5|b1 b1|b2" s;
  (* bounds that do not cross leave the clause alone: x<=5 and x>=5
     are jointly satisfiable *)
  let p, x, b, c = fixture () in
  P.add_clause p [| T.Le (x, 5); T.Pos b |];
  let s = State.create p in
  State.add_clause s [| T.Ge (x, 5); T.Pos b; T.Pos c |];
  let st = Hsimp.run s in
  check_int "touching bounds do not clash" 0 st.Hsimp.strengthened

let test_roots_untouched () =
  let p, x, b, c = fixture () in
  P.add_clause p [| T.Le (x, 5); T.Pos b |];
  P.add_clause p [| T.Le (x, 9); T.Pos b; T.Pos c |];
  P.add_clause p [| T.Ge (x, 7); T.Pos b; T.Pos c |];
  let s = State.create p in
  (* a root clause entailed at the root stays too *)
  State.assert_atom s (T.Pos c) None;
  let before = db_str s in
  let st = Hsimp.run s in
  check_int "no deletion" 0 st.Hsimp.subsumed;
  check_int "no strengthening" 0 st.Hsimp.strengthened;
  Alcotest.(check string) "root clauses unchanged" before (db_str s);
  check_int "all root" 3 s.State.n_root_clauses

let test_root_cleaning () =
  let p, x, b, c = fixture () in
  let s = State.create p in
  State.assert_atom s (T.Le (x, 3)) None;
  State.assert_atom s (T.Neg b) None;
  State.add_clause s [| T.Ge (x, 8); T.Pos b |];
  State.add_clause s [| T.Ge (x, 8); T.Pos b; T.Pos c |];
  State.add_clause s [| T.Le (x, 4); T.Pos c |];
  let st = Hsimp.run s in
  check_int "the entailed clause is deleted" 1 st.Hsimp.subsumed;
  check_int "two falsified atoms dropped" 2 st.Hsimp.strengthened;
  check_db "never an empty clause" "w0>=8|b1 b2" s

let test_second_pass_idle () =
  let p, x, b, c = fixture () in
  let s = State.create p in
  List.iter (State.add_clause s)
    [ [| T.Le (x, 5); T.Pos b |]; [| T.Le (x, 9); T.Pos b; T.Pos c |];
      [| T.Ge (x, 7); T.Pos b; T.Neg c |]; [| T.Pos c; T.Neg b |];
      [| T.Ge (x, 2); T.Pos c |] ];
  let first = Hsimp.run s in
  check_bool "the first pass changes something" true
    (first.Hsimp.subsumed + first.Hsimp.strengthened > 0);
  check_int "the fixpoint leaves every clause clean" s.State.n_clauses
    s.State.n_clean;
  let before = db_str s in
  let st = Hsimp.run s in
  check_int "nothing subsumed" 0 st.Hsimp.subsumed;
  check_int "nothing strengthened" 0 st.Hsimp.strengthened;
  Alcotest.(check string) "database unchanged" before (db_str s)

(* a strengthening chain longer than the round cap: the capped pass
   leaves the clean prefix empty, so the next pass finishes the chain *)
let test_round_cap () =
  let p = P.create () in
  let a = P.new_bool p () in
  let bs = Array.init 4 (fun _ -> P.new_bool p ()) in
  let s = State.create p in
  (* ¬b1∨b0, ¬b2∨b1, ¬b3∨b2, ¬a∨b3, then a: each strengthened clause
     strengthens the one before it, one round later *)
  for i = 0 to 2 do
    State.add_clause s [| T.Neg bs.(i + 1); T.Pos bs.(i) |]
  done;
  State.add_clause s [| T.Neg a; T.Pos bs.(3) |];
  State.add_clause s [| T.Pos a |];
  let st = Hsimp.run s in
  check_int "three rounds, three atoms" 3 st.Hsimp.strengthened;
  check_int "changes pending: nothing clean" 0 s.State.n_clean;
  let st = Hsimp.run s in
  check_int "the next pass finishes the chain" 1 st.Hsimp.strengthened;
  check_int "now at a fixpoint" s.State.n_clauses s.State.n_clean

(* ---- differential suite: Hsimp against the reference ----

   Hsimp promises exactly the reference's database after every pass —
   the same clauses in the same order, root flags, occurrence lists and
   stats — because the search that follows, and every counter the perf
   anchor pins, depends on exactly that.  The histories mimic a
   session: learned clauses (some duplicating, subsuming or clashing
   with what is there), appended root clauses, level-0 bound
   tightening and database reduction between passes, and passes back
   to back. *)

let occs_equal a b =
  let oa = a.State.clause_occs and ob = b.State_ref.clause_occs in
  let ok = ref true in
  for v = 0 to a.State.nv - 1 do
    let n = State.occs_count oa v in
    if n <> State_ref.occs_count ob v
       || Array.sub oa.State.occ.(v) 0 n <> Array.sub ob.State_ref.occ.(v) 0 n
    then ok := false
  done;
  !ok

let roots a = List.init a.State.n_clauses (State.is_root_clause a)

(* the first differing part of two databases, if any *)
let db_diff a b =
  if clauses a <> Vec.to_list b.State_ref.clauses then Some "clauses"
  else if roots a <> Vec.to_list b.State_ref.root_flags then Some "root flags"
  else if a.State.n_root_clauses <> b.State_ref.n_root_clauses then
    Some "root count"
  else if not (occs_equal a b) then Some "occurrence lists"
  else None

let n_bools = 3
let n_words = 3
let width = 7

(* one history: its seed drives every random choice *)
let run_history seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let p = P.create () in
  let bools = Array.init n_bools (fun _ -> P.new_bool p ()) in
  let words = Array.init n_words (fun _ -> P.new_word p (I.make 0 width)) in
  (* a random atom that is neither trivially true nor trivially false
     over the initial domains *)
  let atom () =
    if int 2 = 0 then
      let v = bools.(int n_bools) in
      if int 2 = 0 then T.Pos v else T.Neg v
    else
      let v = words.(int n_words) in
      if int 2 = 0 then T.Ge (v, 1 + int width) else T.Le (v, int width)
  in
  let clause () = Array.init (1 + int 4) (fun _ -> atom ()) in
  (* a clause related to one already in the database: a duplicate, a
     superset (subsumed), a weakened copy (subsumed by interval
     inclusion) or a copy with one atom flipped (strengthenable) *)
  let related s =
    let n = s.State.n_clauses in
    if n = 0 then clause ()
    else begin
      let c = State.clause s (int n) in
      match int 4 with
      | 0 -> c
      | 1 -> Array.append c [| atom () |]
      | 2 ->
        let i = int (Array.length c) in
        (c.(i) <-
           match c.(i) with
           | T.Ge (v, k) when k > 1 -> T.Ge (v, k - 1)
           | T.Le (v, k) when k < width - 1 -> T.Le (v, k + 1)
           | a -> a);
        c
      | _ ->
        let i = int (Array.length c) in
        c.(i) <- T.negate_atom c.(i);
        Array.append c (if int 2 = 0 then [| atom () |] else [||])
    end
  in
  for _ = 1 to 3 + int 4 do
    P.add_clause p (clause ())
  done;
  let a = State.create p and b = State_ref.create p in
  let failure = ref None in
  let pass () =
    let sa = Hsimp.run a and sb = Hsimp_ref.run b in
    if !failure = None then
      if sa.Hsimp.subsumed <> sb.Hsimp_ref.subsumed
         || sa.Hsimp.strengthened <> sb.Hsimp_ref.strengthened
      then failure := Some "stats"
      else failure := db_diff a b
  in
  for _ = 1 to 4 + int 6 do
    (match int 6 with
     | 0 | 1 ->
       for _ = 1 to 1 + int 6 do
         let cl = if int 2 = 0 then related a else clause () in
         State.add_clause a cl;
         State_ref.add_clause b cl
       done
     | 2 ->
       let cl = if int 2 = 0 then related a else clause () in
       State.add_clause a ~root:true cl;
       State_ref.add_clause b ~root:true cl
     | 3 ->
       (* tighten a root bound, never emptying the domain *)
       let v = words.(int n_words) in
       let lb = a.State.lb.(v) and ub = a.State.ub.(v) in
       if lb < ub then begin
         let k = lb + 1 + int (ub - lb) in
         let at = if int 2 = 0 then T.Ge (v, k) else T.Le (v, k - 1) in
         State.assert_atom a at None;
         State_ref.assert_atom b at None
       end
       else begin
         let v = bools.(int n_bools) in
         if State.bool_value a v = -1 then begin
           let at = if int 2 = 0 then T.Pos v else T.Neg v in
           State.assert_atom a at None;
           State_ref.assert_atom b at None
         end
       end
     | 4 ->
       let keep_recent = int 4 in
       State.reduce_clauses a ~keep_recent;
       State_ref.reduce_clauses b ~keep_recent
     | _ -> ());
    (* several steps may land between passes, and passes may run
       back to back *)
    if int 2 = 0 then begin
      pass ();
      if int 3 = 0 then pass ()
    end
  done;
  pass ();
  match !failure with
  | None -> true
  | Some what ->
    QCheck.Test.fail_reportf "%s differ:\n  hsimp %s\n  ref   %s" what
      (db_str a)
      (String.concat " " (List.map clause_str (Vec.to_list b.State_ref.clauses)))

let differential =
  QCheck.Test.make ~count:500
    ~name:"hsimp agrees with the reference over session histories"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    run_history

let () =
  Alcotest.run "hsimp"
    [
      ( "hsimp",
        [
          Alcotest.test_case "interval-inclusion subsumption" `Quick
            test_interval_subsumption;
          Alcotest.test_case "strengthening across opposite bounds" `Quick
            test_strengthening;
          Alcotest.test_case "root clauses untouched" `Quick test_roots_untouched;
          Alcotest.test_case "root-bound cleaning" `Quick test_root_cleaning;
          Alcotest.test_case "second pass after a fixpoint" `Quick
            test_second_pass_idle;
          Alcotest.test_case "round cap leaves nothing clean" `Quick
            test_round_cap;
        ] );
      Qutil.qsuite "hsimp-differential" [ differential ];
    ]
