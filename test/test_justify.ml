(* The incremental J-frontier (Justify): fixed cases pinning when a
   retired gate must be re-checked and when it may stay retired, and a
   differential suite driving Justify and the frozen full-scan
   reference (Justify_ref) in lockstep over random search histories on
   growing circuits. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module T = Rtlsat_constr.Types
module E = Rtlsat_constr.Encode
module P = Rtlsat_constr.Problem
module State = Rtlsat_core.State
module Propagate = Rtlsat_core.Propagate
module Justify = Rtlsat_core.Justify
module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module Gen = Rtlsat_fuzz.Gen
module Case = Rtlsat_fuzz.Case
module Mono = Rtlsat_obs.Mono

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let atom_str = function
  | T.Pos v -> Printf.sprintf "b%d" v
  | T.Neg v -> Printf.sprintf "!b%d" v
  | T.Ge (v, k) -> Printf.sprintf "w%d>=%d" v k
  | T.Le (v, k) -> Printf.sprintf "w%d<=%d" v k

(* a decide outcome, comparable across the two implementations *)
let show f =
  match f () with
  | Some a -> atom_str a
  | None -> "none"
  | exception Justify.Jconflict atoms ->
    "jconflict " ^ String.concat "," (List.map atom_str (Array.to_list atoms))
  | exception Justify_ref.Jconflict atoms ->
    "jconflict " ^ String.concat "," (List.map atom_str (Array.to_list atoms))

let decide ?mux_pref j s = show (fun () -> Justify.decide ?mux_pref j s)
let decide_ref ?mux_pref r s = show (fun () -> Justify_ref.decide ?mux_pref r s)

(* the decision both make, checked equal *)
let both msg j enc s =
  let got = decide j s in
  Alcotest.(check string) msg (decide_ref (Justify_ref.create enc) s) got;
  got

(* ---- fixed cases ---- *)

(* g2 = g1 | c over g1 = a & b: g2 (level 2) is scanned before g1 *)
let two_gates () =
  let c = N.create "two" in
  let a = N.input c ~name:"a" 1 in
  let b = N.input c ~name:"b" 1 in
  let cc = N.input c ~name:"c" 1 in
  let g1 = N.and_ c ~name:"g1" [ a; b ] in
  let g2 = N.or_ c ~name:"g2" [ g1; cc ] in
  N.output c "g2" g2;
  let enc = E.encode c in
  (enc, E.var enc a, E.var enc cc, E.var enc g1)

let test_backjump_to_tag () =
  let enc, a, _, g1 = two_gates () in
  let s = State.create enc.E.problem in
  let j = Justify.create enc in
  State.new_level s;
  State.assert_atom s (T.Neg g1) None;
  (* g2 has a free output: retired at trail length 1 *)
  Alcotest.(check string) "g1 decides" (atom_str (T.Neg a)) (both "level 1" j enc s);
  check_int "both gates checked" 2 (Justify.checks j);
  State.new_level s;
  State.assert_atom s (T.Neg a) None;
  ignore (both "level 2" j enc s);
  check_int "only g1 re-checked" 3 (Justify.checks j);
  (* back to trail length 1, where g2 retired: g2 stays retired, g1
     (retired at length 2) is re-checked *)
  State.backtrack_to s 1;
  ignore (both "backjump to the tag" j enc s);
  check_int "g2 stays retired" 4 (Justify.checks j);
  State.backtrack_to s 0;
  ignore (both "below the tag" j enc s);
  check_int "g2 re-checked below its tag" 6 (Justify.checks j)

let test_restart_reclimb () =
  let enc, a, cc, g1 = two_gates () in
  let s = State.create enc.E.problem in
  let j = Justify.create enc in
  State.assert_atom s (T.Neg g1) None;
  State.new_level s;
  State.assert_atom s (T.Neg a) None;
  Alcotest.(check string) "a = 0 justifies g1" "none" (both "level 1" j enc s);
  check_int "both gates retired" 2 (Justify.checks j);
  (* a restart, then an assumption-only climb back to level 1 with no
     decide in between: the level matches g1's retirement, the trail
     does not *)
  State.backtrack_to s 0;
  State.new_level s;
  State.assert_atom s (T.Pos cc) None;
  Alcotest.(check string) "g1 unjustified again" (atom_str (T.Neg a))
    (both "re-climbed" j enc s);
  check_int "every gate re-checked" 4 (Justify.checks j)

let test_mux_arm_after_retirement () =
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
  State.assert_atom s (T.Le (E.var enc z, 2)) None;
  State.assert_atom s (T.Ge (E.var enc t, 4)) None;
  (* only e is viable: the propagator's business, so the mux retires *)
  Alcotest.(check string) "one viable arm" "none" (both "retire" j enc s);
  State.assert_atom s (T.Ge (E.var enc e, 5)) None;
  match Justify.decide j s with
  | exception Justify.Jconflict atoms ->
    check_bool "carries implying atoms" true (Array.length atoms >= 3);
    check_bool "all entailed" true (Array.for_all (State.entailed s) atoms);
    ignore (both "same J-conflict" (Justify.create enc) enc s)
  | _ -> Alcotest.fail "expected J-conflict"

let test_fanout_tie_break () =
  let c = N.create "fo" in
  let a = N.input c ~name:"a" 1 in
  let b = N.input c ~name:"b" 1 in
  let g = N.and_ c ~name:"g" [ a; b ] in
  N.output c "g" g;
  let enc = E.encode c in
  let s = State.create enc.E.problem in
  let j = Justify.create enc in
  State.new_level s;
  State.assert_atom s (T.Neg (E.var enc g)) None;
  Alcotest.(check string) "tie: first input" (atom_str (T.Neg (E.var enc a)))
    (both "before" j enc s);
  (* a violation node over b raises b's fanout *)
  State.backtrack_to s 0;
  let x = N.input c ~name:"x" 1 in
  N.output c "violation@1" (N.or_ c ~name:"violation@1" [ b; x ]);
  E.extend enc;
  State.grow s;
  Justify.extend j;
  let fresh = Justify.create enc in
  Alcotest.(check (array int)) "fanout" (Justify.fanout fresh) (Justify.fanout j);
  Alcotest.(check (array int)) "order" (Justify.scan_order fresh) (Justify.scan_order j);
  State.new_level s;
  State.assert_atom s (T.Neg (E.var enc g)) None;
  Alcotest.(check string) "b now has the larger fanout"
    (atom_str (T.Neg (E.var enc b))) (both "after" j enc s);
  Alcotest.(check string) "as a fresh justifier" (decide fresh s) (decide j s)

(* ---- differential: lockstep over random histories ---- *)

exception Stop

(* one history: its seed drives the circuit and every random choice *)
let run_history seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let cfg =
    { Gen.default with Gen.max_nodes = 6 + int 20;
                       max_width = (if int 2 = 0 then 4 else 61) }
  in
  let case = Gen.circuit ~cfg ~seed () in
  let sw =
    Bmc.sweep case.Case.circuit ~prop:case.Case.prop
      ~semantics:case.Case.semantics ()
  in
  let bound = ref 1 in
  ignore (Bmc.sweep_violation sw ~bound:1);
  let enc = E.encode (Unroll.combo (Bmc.sweep_unrolled sw)) in
  let s = State.create enc.E.problem in
  s.State.split <- true;
  let j = Justify.create enc in
  let failure = ref None in
  let fail what = if !failure = None then failure := Some what in
  let deadline = Mono.now () +. 2.0 in
  let propagate () =
    match Propagate.run ~deadline s with
    | None -> true
    | Some _ -> false
    | exception Propagate.Propagation_timeout -> raise Stop
  in
  (* after a conflict: back to a random lower level *)
  let backjump () =
    let lvl = State.decision_level s in
    if lvl = 0 then raise Stop;
    State.backtrack_to s (int lvl)
  in
  (* the variables of word muxes, where J-conflicts arise *)
  let mux_vars () =
    List.concat_map
      (fun n ->
         match n.Ir.op with
         | Ir.Mux { t; e; _ } when not (Ir.is_bool n) -> [ n; t; e ]
         | _ -> [])
      (Ir.nodes enc.E.circuit)
    |> List.map (E.var enc)
    |> Array.of_list
  in
  (* a random atom that narrows the current state without emptying it;
     half of them on a word mux, if there is one *)
  let atom () =
    let mv = mux_vars () in
    let nv = P.n_vars enc.E.problem in
    let rec pick tries =
      if tries = 0 then None
      else begin
        let v = if mv <> [||] && int 2 = 0 then mv.(int (Array.length mv)) else int nv in
        let lb = s.State.lb.(v) and ub = s.State.ub.(v) in
        if lb = ub then pick (tries - 1)
        else if P.is_bool_var enc.E.problem v then
          Some (if int 2 = 0 then T.Pos v else T.Neg v)
        else begin
          let k = lb + Random.State.full_int rng (ub - lb) in
          Some (if int 2 = 0 then T.Ge (v, k + 1) else T.Le (v, k))
        end
      end
    in
    pick 20
  in
  let narrow ~level ~prop =
    match atom () with
    | None -> ()
    | Some a ->
      if level then State.new_level s;
      State.assert_atom s a None;
      if prop && not (propagate ()) then backjump ()
  in
  let mux_pref =
    if int 2 = 0 then None else Some (fun v -> ((v * 7) mod 3, (v * 5) mod 3))
  in
  (try
     for call = 0 to int 4 do
       State.backtrack_to s 0;
       if call > 0 then begin
         bound := !bound + 1 + int 2;
         ignore (Bmc.sweep_violation sw ~bound:!bound);
         E.extend enc;
         State.grow s;
         Justify.extend j;
         let fresh = Justify.create enc in
         if Justify.scan_order fresh <> Justify.scan_order j then fail "gate order";
         if Justify.fanout fresh <> Justify.fanout j then fail "fanout"
       end;
       (match Propagate.run ~full:true ~deadline s with
        | None -> ()
        | Some _ | (exception Propagate.Propagation_timeout) -> raise Stop);
       (* the parent built a fresh justifier for every call *)
       let r = Justify_ref.create enc in
       for _ = 0 to 10 + int 40 do
         let got = decide ?mux_pref j s and want = decide_ref ?mux_pref r s in
         if got <> want then fail (Printf.sprintf "decide: %s, reference %s" got want);
         match int 8 with
         | 0 | 1 ->
           (* the search's own step: take the decision *)
           (match Justify_ref.decide ?mux_pref r s with
            | Some a ->
              State.new_level s;
              State.assert_atom s a None;
              if not (propagate ()) then backjump ()
            | None -> narrow ~level:true ~prop:true
            | exception Justify_ref.Jconflict _ -> backjump ())
         | 2 -> narrow ~level:true ~prop:true
         | 3 -> narrow ~level:true ~prop:false
         | 4 -> if State.decision_level s > 0 then narrow ~level:false ~prop:false
         | 5 -> State.backtrack_to s (int (State.decision_level s + 1))
         | 6 ->
           (* a restart, then assumption-only levels with no decide *)
           State.backtrack_to s 0;
           for _ = 0 to int 3 do
             narrow ~level:true ~prop:true
           done
         | _ -> narrow ~level:false ~prop:true
       done
     done
   with Stop | State.Conflict _ -> ());
  match !failure with
  | None -> true
  | Some what -> QCheck.Test.fail_reportf "seed %d: %s" seed what

let differential =
  QCheck.Test.make ~count:1000
    ~name:"justify agrees with the full-scan reference over search histories"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    run_history

let () =
  Alcotest.run "justify"
    [
      ( "frontier",
        [
          Alcotest.test_case "retirement kept at its own trail length" `Quick
            test_backjump_to_tag;
          Alcotest.test_case "restart and assumption re-climb re-check all"
            `Quick test_restart_reclimb;
          Alcotest.test_case "word-mux arm narrowed after retirement" `Quick
            test_mux_arm_after_retirement;
          Alcotest.test_case "grown fanout moves the input tie-break" `Quick
            test_fanout_tie_break;
        ] );
      Qutil.qsuite "justify-differential" [ differential ];
    ]
