(* The engine layer (Engines): the seed-42 equivalence suite — every
   engine routed through [Engines.run_instance] must answer exactly as
   the hand-rolled dispatch reconstructed here over the raw Solver /
   Bitblast / Lazy_cdp APIs — plus per-engine behaviour checks (which
   phases each engine enters, who exports learned clauses, what a
   sweep carries), repeated bounds in one sweep, the sweep-verdict
   rule and an in-process warm-reuse check of the [rtlsat serve]
   daemon. *)

module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Bb = Rtlsat_baselines.Bitblast
module Lz = Rtlsat_baselines.Lazy_cdp
module Engines = Rtlsat_harness.Engines
module Req = Rtlsat_harness.Req
module Report = Rtlsat_harness.Report
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
   computed them before engines became modules: hand-rolled encode +
   engine call + witness replay, with the old default knobs
   (split on, simplify on, inprocess off).  The module path under test
   must never disagree with this. *)
let direct_verdict ?(timeout = 5.0) engine (inst : Bmc.instance) =
  let deadline = Mono.now () +. timeout in
  match (engine : Engines.engine) with
  | Engines.Hdpll | Engines.Hdpll_s | Engines.Hdpll_sp | Engines.Hdpll_p ->
    let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
    E.assume_bool enc inst.Bmc.violation true;
    let base =
      match engine with
      | Engines.Hdpll -> Solver.hdpll
      | Engines.Hdpll_s -> Solver.hdpll_s
      | Engines.Hdpll_sp -> Solver.hdpll_sp
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
     | Solver.Unsat -> Engines.Unsat
     | Solver.Timeout -> Engines.Timeout
     | Solver.Sat m ->
       if Bmc.witness_ok inst (fun n -> m.(E.var enc n)) then Engines.Sat
       else Engines.Abort "witness failed replay")
  | Engines.Bitblast ->
    let bb = Bb.encode (Unroll.combo inst.Bmc.unrolled) in
    Bb.assume_bool bb inst.Bmc.violation true;
    Bb.simplify ~elim:true bb;
    (match Bb.solve ~deadline bb with
     | Bb.Unsat -> Engines.Unsat
     | Bb.Timeout -> Engines.Timeout
     | Bb.Sat ->
       if Bmc.witness_ok inst (Bb.node_value bb) then Engines.Sat
       else Engines.Abort "witness failed replay")
  | Engines.Lazy_cdp ->
    let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
    E.assume_bool enc inst.Bmc.violation true;
    (match Lz.solve ~deadline enc.E.problem with
     | Lz.Unsat, _ -> Engines.Unsat
     | Lz.Timeout, _ -> Engines.Timeout
     | Lz.Sat m, _ ->
       if Bmc.witness_ok inst (fun n -> m.(E.var enc n)) then Engines.Sat
       else Engines.Abort "witness failed replay")

(* Timeouts on either side are budget noise, never a disagreement; a
   witness-replay Abort on either side always fails. *)
let agree label (module_path : Engines.verdict) (direct : Engines.verdict) =
  match (module_path, direct) with
  | Engines.Timeout, _ | _, Engines.Timeout -> ()
  | a, b ->
    check_string label (Engines.verdict_symbol b) (Engines.verdict_symbol a)

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
              (file ^ " on " ^ Engines.engine_name id)
              r.Engines.verdict
              (direct_verdict id (Case.instance case)))
         Engines.all_engines)
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
    Engines.run_sweep ~req:(Req.make ~timeout:5.0 ()) Engines.Lazy_cdp source
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
         | Lz.Unsat, _ -> Engines.Unsat
         | Lz.Timeout, _ -> Engines.Timeout
         | Lz.Sat m, _ ->
           let inst = Bmc.sweep_instance sw ~bound in
           if Bmc.witness_ok inst (fun n -> m.(E.var enc n)) then Engines.Sat
           else Engines.Abort "witness failed replay"
       in
       agree
         (Printf.sprintf "lazy-cdp sweep bound %d" bound)
         step.Engines.sw_run.Engines.verdict direct)
    steps bounds

(* ---- repeated bounds in one sweep ---- *)

(* A ladder may name a bound twice and out of order: every step comes
   back at its own position, and asking about a bound again (after a
   deeper one) gives the same verdict as the first time and as a
   one-shot solve. *)
let test_sweep_repeated_bounds () =
  let source, props = Registry.build "b01" in
  let p = List.assoc "1" props in
  let bounds = [ 6; 2; 8; 2 ] in
  List.iter
    (fun engine ->
       let req = Req.make ~timeout:60.0 () in
       let steps = Engines.run_sweep ~req engine source ~prop:p ~bounds in
       let name = Engines.engine_name engine in
       let verdict (r : Engines.run) = Engines.verdict_symbol r.Engines.verdict in
       check_int (name ^ ": one step per bound") 4 (List.length steps);
       List.iter2
         (fun (step : Engines.sweep_step) bound ->
            check_int (name ^ ": bound order") bound step.Engines.sw_bound;
            check_string
              (Printf.sprintf "%s bound %d vs one-shot" name bound)
              (verdict
                 (Engines.run_instance ~req engine
                    (Registry.instance ~circuit:"b01" ~prop:"1" ~bound)))
              (verdict step.Engines.sw_run))
         steps bounds;
       match steps with
       | [ _; a; _; b ] ->
         check_string (name ^ ": bound 2 asked twice")
           (verdict a.Engines.sw_run) (verdict b.Engines.sw_run)
       | _ -> ())
    [ Engines.Hdpll_sp; Engines.Bitblast ]

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
            | Engines.Timeout, _ | _, Engines.Timeout -> true
            | Engines.Abort _, _ | _, Engines.Abort _ -> false
            | a, b -> a = b)
         Engines.all_engines)

(* ---- per-engine behaviour ---- *)

let hybrid = function
  | Engines.Hdpll | Engines.Hdpll_s | Engines.Hdpll_sp | Engines.Hdpll_p -> true
  | Engines.Bitblast | Engines.Lazy_cdp -> false

(* b13/1 at bound 10 reaches the search loop in every configuration:
   the right instance to watch which phases an engine actually enters
   and whether it exports learned clauses.  Expected: every engine but
   the lazy CDP enters the simplify phase; only the four hybrid engines
   feed [on_learn]. *)
let test_engine_behaviour () =
  List.iter
    (fun id ->
       let label = Engines.engine_name id in
       let simplifies = id <> Engines.Lazy_cdp in
       let obs = Obs.create () in
       let learned = ref 0 in
       let req =
         Req.make ~timeout:60.0 ~obs ~on_learn:(fun _ -> incr learned) ()
       in
       let inst =
         (* the lazy CDP cannot decide b13 in any reasonable budget;
            its probes (no simplify phase, no learned-clause export)
            hold on any instance it can finish *)
         if id = Engines.Lazy_cdp then
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
       check_bool
         (Printf.sprintf "%s: simplifies=%b consistent with %d calls" label
            simplifies simplify_calls)
         simplifies (simplify_calls > 0);
       if not (hybrid id) then
         check_int (label ^ ": on_learn never fires") 0 !learned
       else if r.Engines.conflicts > 0 then
         check_bool (label ^ ": on_learn fired on conflicts") true
           (!learned > 0);
       Obs.close obs)
    Engines.all_engines

(* the lazy CDP re-solves every bound from scratch: zero carried
   counters across a whole sweep *)
let test_lazy_carries_nothing () =
  let source, props = Registry.build "b02" in
  let p = List.assoc "1" props in
  let steps =
    Engines.run_sweep
      ~req:(Req.make ~timeout:30.0 ())
      Engines.Lazy_cdp source ~prop:p ~bounds:[ 4; 8 ]
  in
  List.iter
    (fun (st : Engines.sweep_step) ->
       check_int "lazy-cdp: sessionless carries no clauses" 0
         st.Engines.sw_carried_clauses;
       check_int "lazy-cdp: sessionless carries no relations" 0
         st.Engines.sw_carried_relations)
    steps

(* ---- one-shot structural search pinned ----

   Per-row decisions, conflicts, propagations and learned clauses of
   the structural engines on three Table 2 rows, one fresh context
   each (the path of `rtlsat solve`).  The b13_2 ladder in
   test_session.ml pins the warm session path; this pins the one-shot
   path.  Propagations and learned clauses catch a reordered clause
   scan or reason that leaves the decisions alone.  The figures are
   the search as it stands; a change that moves the search must update
   them deliberately. *)

(* engine, circuit, property, bound, decisions, conflicts,
   propagations, learned *)
let one_shot_rows =
  [ (Engines.Hdpll_sp, "b04", "1", 50, 4, 4, 8411, 454);
    (Engines.Hdpll_sp, "b13", "8", 50, 844, 35, 52946, 1235);
    (Engines.Hdpll_sp, "b13", "2", 50, 1625, 1051, 214399, 2251);
    (Engines.Hdpll_s, "b04", "1", 50, 4, 4, 7833, 4);
    (Engines.Hdpll_s, "b13", "8", 50, 1262, 37, 67169, 37);
    (Engines.Hdpll_s, "b13", "2", 50, 1917, 1160, 236836, 1160) ]

let pin_line id circuit prop bound d c p l =
  Printf.sprintf "%s %s_%s(%d): %d decisions, %d conflicts, %d propagations, %d learned"
    (Engines.engine_name id) circuit prop bound d c p l

let test_one_shot_pin () =
  let run (id, circuit, prop, bound, _, _, _, _) =
    let r =
      Engines.run_instance ~req:(Req.make ~timeout:120.0 ()) id
        (Registry.instance ~circuit ~prop ~bound)
    in
    let st = Option.get r.Engines.stats in
    pin_line id circuit prop bound r.Engines.decisions r.Engines.conflicts
      st.Solver.propagations st.Solver.learned
  in
  let pinned (id, circuit, prop, bound, d, c, p, l) =
    pin_line id circuit prop bound d c p l
  in
  Alcotest.(check (list string)) "per-row search counters"
    (List.map pinned one_shot_rows) (List.map run one_shot_rows)

(* ---- the bit-blast ladder pinned ----

   [Bitblast.extend] blasts only the nodes appended since the last
   bound; the b13_1 ladder 10..60 must keep the verdicts of the
   full-circuit walk it replaced, and the carried clauses pin the
   bit-blast search, so any change to the encoder, the CDCL kernel or
   the preprocessing policy that moves it shows here.  The counts are
   those of an encoding preprocessed once, on the first bound. *)
let test_bitblast_ladder_pin () =
  let source, props = Registry.build "b13" in
  let steps =
    Engines.run_sweep ~req:(Req.make ~timeout:60.0 ()) Engines.Bitblast source
      ~prop:(List.assoc "1" props) ~bounds:[ 10; 20; 30; 40; 50; 60 ]
  in
  let row (st : Engines.sweep_step) =
    Printf.sprintf "%d %s carried %d" st.Engines.sw_bound
      (Report.verdict_string st.Engines.sw_run.Engines.verdict)
      st.Engines.sw_carried_clauses
  in
  let pinned (bound, carried) = Printf.sprintf "%d unsat carried %d" bound carried in
  Alcotest.(check (list string)) "b13_1 bitblast ladder"
    (List.map pinned [ (10, 0); (20, 10); (30, 106); (40, 240); (50, 483); (60, 798) ])
    (List.map row steps)

(* ---- a bit-blast session preprocesses once ----

   The session program over the raw APIs, as `rtlsat sweep` and the
   per-layer pass run it: extend, simplify without elimination, solve
   under the bound's violation selector.  Only the first call may run
   a Simp pass; every later bound's frames go straight into the live
   database. *)
let test_bitblast_preprocesses_once () =
  let source, props = Registry.build "b13" in
  let sw = Bmc.sweep source ~prop:(List.assoc "1" props) () in
  let bb = Bb.encode (Unroll.combo (Bmc.sweep_unrolled sw)) in
  let rounds () = (Bb.simp_stats bb).Rtlsat_simplify.Simp.rounds in
  let step bound =
    let vnode = Bmc.sweep_violation sw ~bound in
    Bb.extend bb;
    let before = rounds () in
    Bb.simplify ~elim:false bb;
    let ran = rounds () <> before in
    let verdict =
      match Bb.solve ~assumptions:[ Bb.bool_lit bb vnode ] bb with
      | Bb.Sat -> "sat"
      | Bb.Unsat -> "unsat"
      | Bb.Timeout -> "timeout"
    in
    Printf.sprintf "%d %s pass %b" bound verdict ran
  in
  Alcotest.(check (list string)) "b13_1 bitblast ladder passes"
    [ "10 unsat pass true"; "20 unsat pass false"; "30 unsat pass false";
      "40 unsat pass false"; "50 unsat pass false"; "60 unsat pass false" ]
    (List.map step [ 10; 20; 30; 40; 50; 60 ])

(* "bound verdict" per step of a bit-blast sweep *)
let bitblast_ladder ?(req = Req.make ~timeout:60.0 ()) ?semantics source ~prop
    bounds =
  List.map
    (fun (st : Engines.sweep_step) ->
       Printf.sprintf "%d %s" st.Engines.sw_bound
         (Report.verdict_string st.Engines.sw_run.Engines.verdict))
    (Engines.run_sweep ~req ?semantics Engines.Bitblast source ~prop ~bounds)

(* Every bound of the b01_1 ladder is Sat, and the engine reports Sat
   only after the witness, read back through the first pass's
   substitution, replays in the simulator (a failed replay is an
   Abort). *)
let test_bitblast_sat_ladder () =
  let source, props = Registry.build "b01" in
  let bounds = [ 10; 20; 30; 40; 50; 60 ] in
  Alcotest.(check (list string)) "b01_1 bitblast ladder"
    (List.map (Printf.sprintf "%d sat") bounds)
    (bitblast_ladder source ~prop:(List.assoc "1" props) bounds)

(* A register whose next state the first pass substitutes: z = a ∧
   (a ∨ c) is a (self-subsuming resolution, then SCC collapsing), so
   every frame a later bound adds reads r through z's substituted
   variable.  r and q (next state a) agree in every frame, so each
   bound is Unsat under Any semantics; a frame added without the
   substitution would find z's variable free and r apart from q. *)
let subst_carry =
  "circuit subst_carry\ninput a 1\ninput c 1\nnode b = or a c\n\
   node z = and a b\nreg r 1 0\nconnect r z\nreg q 1 0\nconnect q a\n\
   node p = eq r q\noutput prop p\n"

let test_bitblast_substituted_frames () =
  let c = Rtlsat_rtl.Text.parse subst_carry in
  let obs = Obs.create () in
  let rows =
    bitblast_ladder ~req:(Req.make ~timeout:60.0 ~obs ()) ~semantics:Bmc.Any c
      ~prop:(Rtlsat_rtl.Netlist.find_output c "prop") [ 10; 20; 30 ]
  in
  check_bool "the first pass substitutes" true
    (Obs.counter obs "simplify.equivs" > 0);
  Alcotest.(check (list string)) "subst_carry bitblast ladder"
    [ "10 unsat"; "20 unsat"; "30 unsat" ] rows

(* ---- the sweep verdict rule, shared by `rtlsat sweep` and serve ---- *)

let test_sweep_verdict () =
  let step verdict =
    {
      Engines.sw_bound = 1;
      sw_run =
        {
          Engines.verdict;
          time = 0.0;
          relations = 0;
          learn_time = 0.0;
          decisions = 0;
          conflicts = 0;
          stats = None;
          metrics = None;
        };
      sw_carried_clauses = 0;
      sw_carried_relations = 0;
    }
  in
  let check label verdicts expected =
    check_string label
      (Report.verdict_string expected)
      (Report.verdict_string
         (Engines.sweep_verdict (List.map step verdicts)))
  in
  let open Engines in
  check "a Sat bound before an Unsat one" [ Sat; Unsat ] Sat;
  check "Sat outranks a timeout" [ Sat; Timeout ] Sat;
  check "Sat outranks an abort" [ Abort "x"; Sat ] Sat;
  check "a timeout outranks an abort" [ Abort "x"; Timeout; Unsat ] Timeout;
  check "an abort outranks Unsat" [ Unsat; Abort "x" ] (Abort "x");
  check "all Unsat" [ Unsat; Unsat ] Unsat

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

(* ---- verdict pin: the benchmark's expected-verdict table ---- *)

(* The rows of perfbench/expected.tsv (a read-only dune dep) up to
   bound 50, as [(circuit, prop, bound, verdict)].  Each is solved the
   way the table was generated: a default request under the paper's
   engine and under the bit-blast baseline. *)
let expected_rows ~max_bound =
  let ic = open_in "../perfbench/expected.tsv" in
  let rec read acc =
    match input_line ic with
    | line ->
      (match String.split_on_char '\t' (String.trim line) with
       | [ c; p; b; v ] when line.[0] <> '#' && int_of_string b <= max_bound ->
         read ((c, p, int_of_string b, v) :: acc)
       | _ -> read acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  read []

let test_expected_verdicts engine () =
  let rows = expected_rows ~max_bound:50 in
  check_bool "table has rows" true (List.length rows >= 40);
  let line (circuit, prop, bound) verdict =
    Printf.sprintf "%s: %s" (Registry.instance_name ~circuit ~prop ~bound)
      verdict
  in
  Alcotest.(check (list string)) (Engines.engine_name engine ^ " verdicts")
    (List.map (fun (c, p, b, v) -> line (c, p, b) v) rows)
    (List.map
       (fun (circuit, prop, bound, _) ->
          let r =
            Engines.run_instance ~req:(Req.make ()) engine
              (Registry.instance ~circuit ~prop ~bound)
          in
          line (circuit, prop, bound) (Report.verdict_string r.Engines.verdict))
       rows)

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
          Alcotest.test_case "behaviour consistency" `Quick
            test_engine_behaviour;
          Alcotest.test_case "sessionless carries nothing" `Quick
            test_lazy_carries_nothing;
          Alcotest.test_case "one-shot structural search pinned" `Quick
            test_one_shot_pin;
        ] );
      (* Suite names stay at most 12 characters ("capabilities"): a longer
         one widens alcotest's name column and changes how the longer test
         names above and below are truncated in its output. *)
      ( "verdict-rule",
        [ Alcotest.test_case "rule over hand-built steps" `Quick
            test_sweep_verdict ] );
      ( "sweep",
        [ Alcotest.test_case "repeated bounds keep their order" `Quick
            test_sweep_repeated_bounds;
          Alcotest.test_case "bitblast b13_1 ladder pinned" `Quick
            test_bitblast_ladder_pin;
          Alcotest.test_case "bitblast preprocesses once" `Quick
            test_bitblast_preprocesses_once;
          Alcotest.test_case "bitblast b01_1 sat ladder" `Quick
            test_bitblast_sat_ladder;
          Alcotest.test_case "bitblast frames via substitution" `Quick
            test_bitblast_substituted_frames ] );
      ( "serve",
        [
          Alcotest.test_case "warm reuse over one pool" `Quick
            test_serve_warm_reuse;
          Alcotest.test_case "bad timeouts and empty sweeps rejected" `Quick
            test_bad_requests;
        ] );
      ( "verdict-pin",
        [
          Alcotest.test_case "hdpll+s+p up to bound 50" `Quick
            (test_expected_verdicts Engines.Hdpll_sp);
          Alcotest.test_case "bitblast up to bound 50" `Quick
            (test_expected_verdicts Engines.Bitblast);
        ] );
    ]
