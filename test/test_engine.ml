(* First-class engine modules (Engine.S): the seed-42 equivalence
   suite — every engine routed through the new module surface must
   answer exactly as the pre-refactor dispatch it replaced, which is
   reconstructed here over the raw Solver / Bitblast / Lazy_cdp APIs —
   plus the capability-declaration consistency checks (static caps vs
   observed behaviour) and an in-process warm-reuse check of the
   [rtlsat serve] daemon. *)

module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Bb = Rtlsat_baselines.Bitblast
module Lz = Rtlsat_baselines.Lazy_cdp
module Engine = Rtlsat_harness.Engine
module Engines = Rtlsat_harness.Engines
module Req = Rtlsat_harness.Req
module Serve = Rtlsat_harness.Serve
module Registry = Rtlsat_itc99.Registry
module Obs = Rtlsat_obs.Obs
module Mono = Rtlsat_obs.Mono
module Json = Rtlsat_obs.Json
module Gen = Rtlsat_fuzz.Gen
module Case = Rtlsat_fuzz.Case

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- the pre-refactor dispatch, reconstructed over the raw APIs ---- *)

(* Verdicts exactly as the old variant-matching [Engines.run_instance]
   computed them before the Engine.S refactor: hand-rolled encode +
   engine call + witness replay, with the old default knobs
   (split on, simplify on, inprocess off).  The module path under test
   must never disagree with this. *)
let direct_verdict ?(timeout = 5.0) engine (inst : Bmc.instance) =
  let deadline = Mono.now () +. timeout in
  match (engine : Engine.id) with
  | Engine.Hdpll | Engine.Hdpll_s | Engine.Hdpll_sp | Engine.Hdpll_p ->
    let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
    E.assume_bool enc inst.Bmc.violation true;
    let base =
      match engine with
      | Engine.Hdpll -> Solver.hdpll
      | Engine.Hdpll_s -> Solver.hdpll_s
      | Engine.Hdpll_sp -> Solver.hdpll_sp
      | _ -> Solver.hdpll_p
    in
    let options =
      { base with
        Solver.deadline;
        Solver.split = true;
        Solver.simplify = true;
        Solver.inprocess = 0;
      }
    in
    (match (Solver.solve ~options enc).Solver.result with
     | Solver.Unsat -> Engine.Unsat
     | Solver.Timeout -> Engine.Timeout
     | Solver.Sat m ->
       if Bmc.witness_ok inst (fun n -> m.(E.var enc n)) then Engine.Sat
       else Engine.Abort "witness failed replay")
  | Engine.Bitblast ->
    let bb = Bb.encode (Unroll.combo inst.Bmc.unrolled) in
    Bb.assume_bool bb inst.Bmc.violation true;
    Bb.simplify ~elim:true bb;
    (match Bb.solve ~deadline bb with
     | Bb.Unsat -> Engine.Unsat
     | Bb.Timeout -> Engine.Timeout
     | Bb.Sat ->
       if Bmc.witness_ok inst (Bb.node_value bb) then Engine.Sat
       else Engine.Abort "witness failed replay")
  | Engine.Lazy_cdp ->
    let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
    E.assume_bool enc inst.Bmc.violation true;
    (match Lz.solve ~deadline enc.E.problem with
     | Lz.Unsat, _ -> Engine.Unsat
     | Lz.Timeout, _ -> Engine.Timeout
     | Lz.Sat m, _ ->
       if Bmc.witness_ok inst (fun n -> m.(E.var enc n)) then Engine.Sat
       else Engine.Abort "witness failed replay")

(* Timeouts on either side are budget noise, never a disagreement; a
   witness-replay Abort on either side always fails. *)
let agree label (module_path : Engine.verdict) (direct : Engine.verdict) =
  match (module_path, direct) with
  | Engine.Timeout, _ | _, Engine.Timeout -> ()
  | a, b ->
    check_string label (Engine.verdict_symbol b) (Engine.verdict_symbol a)

(* ---- corpus equivalence, every engine ---- *)

let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus"
  else Filename.concat (Filename.dirname Sys.executable_name) "corpus"

let corpus_cases () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rtl")
  |> List.sort compare
  |> List.map (fun f -> (f, Case.of_file (Filename.concat dir f)))

let test_corpus_equivalence () =
  List.iter
    (fun (file, case) ->
       List.iter
         (fun id ->
            let r =
              Engines.run_instance
                ~req:(Req.make ~timeout:5.0 ())
                id (Case.instance case)
            in
            agree
              (file ^ " on " ^ Engine.name_of id)
              r.Engines.verdict
              (direct_verdict id (Case.instance case)))
         Engine.all_ids)
    (corpus_cases ())

(* ---- the lazy-cdp scratch-sweep arm ---- *)

(* The lazy CDP has no incremental interface: its [session] must
   re-solve every bound from scratch with zero carried counters, and
   still agree with a hand-rolled fresh encode+solve per bound. *)
let test_lazy_scratch_sweep () =
  let source, props = Registry.build "b01" in
  let p = List.assoc "1" props in
  let bounds = [ 2; 4; 6 ] in
  let steps =
    Engines.run_sweep ~req:(Req.make ~timeout:5.0 ()) Engine.Lazy_cdp source
      ~prop:p ~bounds
  in
  check_int "one step per bound" (List.length bounds) (List.length steps);
  let sw = Bmc.sweep source ~prop:p () in
  List.iter2
    (fun (step : Engines.sweep_step) bound ->
       check_int "step bound" bound step.Engines.sw_bound;
       check_int "nothing carried" 0 step.Engines.sw_carried_clauses;
       check_int "no relations carried" 0 step.Engines.sw_carried_relations;
       let vnode = Bmc.sweep_violation sw ~bound in
       let enc = E.encode (Unroll.combo (Bmc.sweep_unrolled sw)) in
       E.assume_bool enc vnode true;
       let direct =
         match Lz.solve ~deadline:(Mono.now () +. 5.0) enc.E.problem with
         | Lz.Unsat, _ -> Engine.Unsat
         | Lz.Timeout, _ -> Engine.Timeout
         | Lz.Sat m, _ ->
           let inst = Bmc.sweep_instance sw ~bound in
           if Bmc.witness_ok inst (fun n -> m.(E.var enc n)) then Engine.Sat
           else Engine.Abort "witness failed replay"
       in
       agree
         (Printf.sprintf "lazy-cdp sweep bound %d" bound)
         step.Engines.sw_run.Engines.verdict direct)
    steps bounds

(* ---- seed-42 property: random circuits, all engines ---- *)

let prop_module_path_equiv =
  QCheck.Test.make ~count:10
    ~name:"Engine.S path agrees with pre-refactor dispatch (all engines)"
    QCheck.small_nat
    (fun seed ->
       let case =
         Gen.circuit ~seed ~cfg:{ Gen.default with Gen.max_nodes = 10 } ()
       in
       List.for_all
         (fun id ->
            let r =
              Engines.run_instance
                ~req:(Req.make ~timeout:2.0 ())
                id (Case.instance case)
            in
            match
              (r.Engines.verdict,
               direct_verdict ~timeout:2.0 id (Case.instance case))
            with
            | Engine.Timeout, _ | _, Engine.Timeout -> true
            | Engine.Abort _, _ | _, Engine.Abort _ -> false
            | a, b -> a = b)
         Engine.all_ids)

(* ---- capability declarations: registry consistency ---- *)

let test_caps_registry () =
  check_int "six engines registered" 6 (List.length Engine.all);
  List.iter2
    (fun id (module M : Engine.S) ->
       let label = Engine.name_of id in
       check_bool (label ^ ": module id matches") true (M.id = id);
       check_string (label ^ ": module name matches") (Engine.name_of id) M.name;
       check_bool (label ^ ": caps match caps_of") true
         (M.caps = Engine.caps_of id);
       check_bool (label ^ ": name round-trips") true
         (Engine.of_name M.name = Some id))
    Engine.all_ids Engine.all

(* ---- capability declarations: observed behaviour ---- *)

(* b13/1 at bound 10 reaches the search loop in every configuration:
   the right instance to watch which phases an engine actually enters
   and whether it exports learned clauses. *)
let test_caps_behaviour () =
  List.iter
    (fun id ->
       let label = Engine.name_of id in
       let caps = Engine.caps_of id in
       let obs = Obs.create () in
       let learned = ref 0 in
       let req =
         Req.make ~timeout:60.0 ~obs ~on_learn:(fun _ -> incr learned) ()
       in
       let inst =
         (* the lazy CDP cannot decide b13 in any reasonable budget;
            its capability probes (no simplify phase, no learned-clause
            export) hold on any instance it can finish *)
         if id = Engine.Lazy_cdp then
           Registry.instance ~circuit:"b01" ~prop:"1" ~bound:3
         else Registry.instance ~circuit:"b13" ~prop:"1" ~bound:10
       in
       let r = Engines.run_instance ~req id inst in
       check_bool (label ^ ": decided within budget") true
         (match r.Engines.verdict with
          | Engines.Sat | Engines.Unsat -> true
          | _ -> false);
       let s = Obs.snapshot obs in
       let simplify_calls =
         match
           List.find_opt (fun (n, _, _) -> n = "simplify") s.Obs.phases
         with
         | Some (_, _, calls) -> calls
         | None -> 0
       in
       (* an engine that does not declare honors_simplify must never
          enter the simplify phase; the declared ones must on an
          instance that reaches search *)
       check_bool
         (Printf.sprintf "%s: honors_simplify=%b consistent with %d calls"
            label caps.Engine.honors_simplify simplify_calls)
         caps.Engine.honors_simplify (simplify_calls > 0);
       if not caps.Engine.exports_learned_clauses then
         check_int (label ^ ": on_learn never fires") 0 !learned
       else if r.Engines.conflicts > 0 then
         check_bool (label ^ ": on_learn fired on conflicts") true
           (!learned > 0);
       Obs.close obs)
    Engine.all_ids

(* supports_sessions = false must mean zero carried counters across a
   whole sweep *)
let test_caps_sessions () =
  let source, props = Registry.build "b02" in
  let p = List.assoc "1" props in
  List.iter
    (fun id ->
       let caps = Engine.caps_of id in
       if not caps.Engine.supports_sessions then
         let steps =
           Engines.run_sweep
             ~req:(Req.make ~timeout:30.0 ())
             id source ~prop:p ~bounds:[ 4; 8 ]
         in
         List.iter
           (fun (st : Engines.sweep_step) ->
              check_int
                (Engine.name_of id ^ ": sessionless carries no clauses")
                0 st.Engines.sw_carried_clauses;
              check_int
                (Engine.name_of id ^ ": sessionless carries no relations")
                0 st.Engines.sw_carried_relations)
           steps)
    Engine.all_ids

(* ---- one-shot structural search pinned ----

   Per-row decisions and conflicts of the structural engines on three
   Table 2 rows, one fresh context each (the path of `rtlsat solve`).
   The b13_2 ladder in test_session.ml pins the warm session path;
   this pins the one-shot path.  The figures are the search as it
   stands; a change that moves the structural decisions must update
   them deliberately. *)

(* engine, circuit, property, bound, decisions, conflicts *)
let one_shot_rows =
  [ (Engine.Hdpll_sp, "b04", "1", 50, 4, 4);
    (Engine.Hdpll_sp, "b13", "8", 50, 844, 35);
    (Engine.Hdpll_sp, "b13", "2", 50, 1625, 1051);
    (Engine.Hdpll_s, "b04", "1", 50, 4, 4);
    (Engine.Hdpll_s, "b13", "8", 50, 1262, 37);
    (Engine.Hdpll_s, "b13", "2", 50, 1917, 1160) ]

let test_one_shot_pin () =
  let run (id, circuit, prop, bound, _, _) =
    let (module M : Engine.S) = Engine.of_id id in
    let req = Req.make ~timeout:120.0 () in
    let r = M.solve ~req (M.create ~req (Registry.instance ~circuit ~prop ~bound)) in
    Printf.sprintf "%s %s_%s(%d): %d decisions, %d conflicts" M.name circuit prop
      bound r.Engine.decisions r.Engine.conflicts
  in
  let pinned (id, circuit, prop, bound, d, c) =
    Printf.sprintf "%s %s_%s(%d): %d decisions, %d conflicts"
      (Engine.name_of id) circuit prop bound d c
  in
  Alcotest.(check (list string)) "per-row search counters"
    (List.map pinned one_shot_rows) (List.map run one_shot_rows)

(* ---- mode contract: solve vs sweep_step are not interchangeable ---- *)

let test_mode_contract () =
  let source, props = Registry.build "b01" in
  let p = List.assoc "1" props in
  let inst = Registry.instance ~circuit:"b01" ~prop:"1" ~bound:3 in
  List.iter
    (fun (module M : Engine.S) ->
       let req = Req.default in
       let one = M.create ~req inst in
       (try
          ignore (M.sweep_step ~req one ~bound:3);
          Alcotest.failf "%s: sweep_step on a one-shot context must raise"
            M.name
        with Invalid_argument _ -> ());
       let sw = M.session ~req source ~prop:p in
       try
         ignore (M.solve ~req sw);
         Alcotest.failf "%s: solve on a sweep context must raise" M.name
       with Invalid_argument _ -> ())
    Engine.all

(* ---- serve: the second identical request hits the warm session ---- *)

let test_serve_warm_reuse () =
  let t = Serve.create () in
  let request id =
    Printf.sprintf
      "{\"op\":\"solve\",\"id\":%d,\"circuit\":\"b01\",\"prop\":\"1\",\"bound\":10,\"timeout_s\":60}"
      id
  in
  let member name v =
    match Json.member name v with
    | Some j -> j
    | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string v)
  in
  let r1, k1 = Serve.handle t (Json.of_string (request 1)) in
  let r2, k2 = Serve.handle t (Json.of_string (request 2)) in
  check_bool "loop continues" true (k1 && k2);
  check_string "schema stamped" "rtlsat.serve/1"
    (Option.get (Json.get_string (member "schema" r2)));
  List.iter
    (fun r -> check_bool "ok" true (member "ok" r = Json.Bool true))
    [ r1; r2 ];
  check_string "verdicts agree across the warm boundary"
    (Option.get (Json.get_string (member "verdict" r1)))
    (Option.get (Json.get_string (member "verdict" r2)));
  let sess1 = member "session" r1 and sess2 = member "session" r2 in
  check_bool "first request is cold" true
    (member "warm" sess1 = Json.Bool false);
  check_bool "second request is warm" true
    (member "warm" sess2 = Json.Bool true);
  check_string "unroll prefix cache hit" "hit"
    (Option.get (Json.get_string (member "unroll_cache" sess2)));
  check_int "solve counter advanced" 2
    (Option.get (Json.get_int (member "solves" sess2)));
  (* shutdown stops the loop *)
  let _, continue =
    Serve.handle t (Json.of_string "{\"op\":\"shutdown\",\"id\":3}")
  in
  check_bool "shutdown stops the loop" false continue

(* ---- bad budgets and empty sweeps are rejected, not run ---- *)

let test_bad_requests () =
  let rejects timeout =
    match Req.make ~timeout () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative timeout" true (rejects (-1.0));
  check_bool "NaN timeout" true (rejects Float.nan);
  check_bool "zero timeout is valid" false (rejects 0.0);
  let t = Serve.create () in
  List.iter
    (fun line ->
       let r, keep = Serve.handle t (Json.of_string line) in
       check_bool ("keeps serving after " ^ line) true keep;
       check_bool ("rejects " ^ line) true
         (Json.member "ok" r = Some (Json.Bool false)))
    [
      {|{"op":"solve","id":1,"circuit":"b01","prop":"1","bound":5,"timeout_s":-1}|};
      {|{"op":"solve","id":2,"circuit":"b01","prop":"1","bound":5,"timeout_s":"x"}|};
      {|{"op":"sweep","id":3,"circuit":"b01","prop":"1","bounds":[]}|};
    ];
  let stats, _ = Serve.handle t (Json.of_string {|{"op":"stats","id":4}|}) in
  check_bool "nothing served" true
    (Json.member "served" stats = Some (Json.Int 0))

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "corpus, all engines" `Slow
            test_corpus_equivalence;
          Alcotest.test_case "lazy-cdp scratch sweep" `Quick
            test_lazy_scratch_sweep;
        ] );
      Qutil.qsuite "properties" [ prop_module_path_equiv ];
      ( "capabilities",
        [
          Alcotest.test_case "registry consistency" `Quick test_caps_registry;
          Alcotest.test_case "behaviour consistency" `Quick
            test_caps_behaviour;
          Alcotest.test_case "sessionless carries nothing" `Quick
            test_caps_sessions;
          Alcotest.test_case "mode contract" `Quick test_mode_contract;
          Alcotest.test_case "one-shot structural search pinned" `Quick
            test_one_shot_pin;
        ] );
      ( "serve",
        [
          Alcotest.test_case "warm reuse over one pool" `Quick
            test_serve_warm_reuse;
          Alcotest.test_case "bad timeouts and empty sweeps rejected" `Quick
            test_bad_requests;
        ] );
    ]
