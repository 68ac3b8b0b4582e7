(* Parallel driver: the race primitive (deterministic fast/slow rig),
   portfolio / cube / sweep verdict equivalence with the sequential
   paths, the multi-domain ledger-append stress, snapshot merging and
   the clause exchange. *)

module Parallel = Rtlsat_parallel.Parallel
module Exchange = Rtlsat_parallel.Exchange
module Engines = Rtlsat_harness.Engines
module Registry = Rtlsat_itc99.Registry
module Obs = Rtlsat_obs.Obs
module Ledger = Rtlsat_obs.Ledger
module Json = Rtlsat_obs.Json
module Mono = Rtlsat_obs.Mono
module Gen = Rtlsat_fuzz.Gen
module Case = Rtlsat_fuzz.Case

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let verdict_eq a b =
  match (a, b) with
  | Engines.Sat, Engines.Sat
  | Engines.Unsat, Engines.Unsat
  | Engines.Timeout, Engines.Timeout -> true
  | Engines.Abort _, Engines.Abort _ -> true
  | _ -> false

(* ---- the race primitive, rigged deterministic ---- *)

let test_race_fast_wins () =
  (* fast finishes decisively after 50ms; slow only returns once it
     observes the cancel flag (or after a 10s safety net).  The winner
     must be fast, and slow must see the cancellation promptly. *)
  let observed = Atomic.make (-1.0) in
  let fast ~worker:_ ~cancel:_ =
    Unix.sleepf 0.05;
    `Fast
  in
  let slow ~worker:_ ~cancel =
    let t0 = Mono.now () in
    let rec loop () =
      if Atomic.get cancel then Atomic.set observed (Mono.now () -. t0)
      else if Mono.now () -. t0 > 10.0 then ()
      else begin
        Unix.sleepf 0.001;
        loop ()
      end
    in
    loop ();
    `Slow
  in
  let rr = Parallel.race ~decisive:(fun r -> r = `Fast) [| fast; slow |] in
  check_bool "fast wins" true (rr.Parallel.winner = Some 0);
  check_bool "winner entry recorded" true (rr.Parallel.entries.(0) = Some `Fast);
  check_bool "loser entry recorded" true (rr.Parallel.entries.(1) = Some `Slow);
  check_bool "slow observed cancellation" true (Atomic.get observed >= 0.0);
  check_bool "cancellation prompt (< 5s)" true (Atomic.get observed < 5.0)

let test_race_survives_exception () =
  (* a crashing worker leaves a None entry and does not steal the win *)
  let crash ~worker:_ ~cancel:_ = failwith "boom" in
  let ok ~worker:_ ~cancel:_ = `Ok in
  let rr = Parallel.race ~decisive:(fun _ -> true) [| crash; ok |] in
  check_bool "crashed entry is None" true (rr.Parallel.entries.(0) = None);
  check_bool "survivor wins" true (rr.Parallel.winner = Some 1)

(* ---- multi-domain ledger appends: no torn or interleaved lines ---- *)

let test_ledger_stress () =
  let path = Filename.temp_file "rtlsat_ledger_stress" ".jsonl" in
  Sys.remove path;
  let n_domains = 4 and n_appends = 64 in
  let doms =
    Array.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to n_appends - 1 do
              let record =
                Ledger.make ~subcommand:"test" ~argv:[ "test_parallel" ]
                  ~instance:(Printf.sprintf "d%d_i%d" d i)
                  ~engine:"none" ~options:"" ~verdict:"ok" ~wall_s:0.0
                  ~counters:[] ~artifacts:[] ()
              in
              Ledger.append ~path record
            done))
  in
  Array.iter Domain.join doms;
  (* every raw line is complete JSON — a torn or interleaved write
     would fail to parse *)
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       ignore (Json.of_string line)
     done
   with End_of_file -> ());
  close_in ic;
  check_int "one line per append" (n_domains * n_appends) !lines;
  (* and Ledger.load, which skips corrupt lines, must skip nothing *)
  let records = Ledger.load ~path in
  check_int "every record loads" (n_domains * n_appends) (List.length records);
  let ids = List.map (fun r -> r.Ledger.id) records in
  check_int "run ids are collision-free" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Sys.remove path

(* ---- portfolio == sequential verdicts (fixed-seed property) ---- *)

let prop_portfolio_equiv =
  QCheck.Test.make ~count:12 ~name:"portfolio -j 6 verdict == -j 1 verdict"
    QCheck.(int_range 0 10_000)
    (fun seed ->
       let cfg = { Gen.default with Gen.max_nodes = 10 } in
       let case = Gen.circuit ~cfg ~seed () in
       let req = Rtlsat_harness.Req.make ~timeout:60.0 () in
       let seq =
         Engines.run_instance ~req Engines.Hdpll_sp (Case.instance case)
       in
       (* the full six-engine lineup; workers share one instance, so
          this also exercises concurrent encoding of the same unroll *)
       let p =
         Parallel.portfolio ~req ~j:6 ~engine:Engines.Hdpll_sp
           (Case.instance case)
       in
       match (seq.Engines.verdict, p.Parallel.p_run.Engines.verdict) with
       | Engines.Sat, Engines.Sat -> true
       | Engines.Unsat, Engines.Unsat -> true
       (* a Sat portfolio verdict is witness-validated inside
          run_instance; disagreement on decided verdicts is the bug
          this property exists to catch *)
       | Engines.Timeout, _ | _, Engines.Timeout -> true
       | _ -> false)

(* ---- cube-and-conquer == sequential verdicts ---- *)

let test_cube_probe_decides () =
  (* easy instances: the probe settles them without cubing *)
  List.iter
    (fun (c, p, b, expect) ->
       let inst = Registry.instance ~circuit:c ~prop:p ~bound:b in
       let r =
         Parallel.cube_solve
           ~req:(Rtlsat_harness.Req.make ~timeout:60.0 ())
           ~j:2 ~engine:Engines.Hdpll_sp inst
       in
       check_bool
         (Printf.sprintf "%s_%s(%d) verdict" c p b)
         true
         (verdict_eq r.Parallel.c_verdict expect);
       check_int (Printf.sprintf "%s_%s(%d) no cubes" c p b) 0
         r.Parallel.c_cubes)
    [ ("b01", "1", 10, Engines.Sat); ("b02", "1", 10, Engines.Unsat) ]

let test_cube_conquers () =
  (* a tiny probe budget forces the cube path on an instance the
     engine needs ~0.5s for; all cubes must be refuted and the
     all-refuted verdict must equal the sequential Unsat *)
  let inst = Registry.instance ~circuit:"b13" ~prop:"2" ~bound:50 in
  let r =
    Parallel.cube_solve
      ~req:(Rtlsat_harness.Req.make ~timeout:120.0 ())
      ~probe_budget:0.1 ~j:2 ~engine:Engines.Hdpll_sp inst
  in
  check_bool "verdict unsat" true (verdict_eq r.Parallel.c_verdict Engines.Unsat);
  if r.Parallel.c_cubes > 0 then begin
    check_int "all cubes refuted" r.Parallel.c_cubes r.Parallel.c_refuted;
    check_bool "cube variables nominated" true (r.Parallel.c_vars <> [])
  end

(* ---- parallel sweep == sequential sweep ---- *)

let test_sweep_matches () =
  let source, props = Registry.build "b01" in
  let p = List.assoc "1" props in
  let req = Rtlsat_harness.Req.make ~timeout:60.0 () in
  (* the second ladder repeats a bound: each step must come back at its
     own position, not at the first occurrence of its bound *)
  List.iter
    (fun (j, bounds) ->
       let seqs =
         Engines.run_sweep ~req Engines.Hdpll_sp source ~prop:p ~bounds
       in
       let pars =
         Parallel.sweep ~req ~j Engines.Hdpll_sp source ~prop:p ~bounds
       in
       check_int "same step count" (List.length seqs) (List.length pars);
       List.iter2
         (fun (a : Engines.sweep_step) (b : Engines.sweep_step) ->
            check_int "bound order preserved" a.Engines.sw_bound
              b.Engines.sw_bound;
            check_bool
              (Printf.sprintf "bound %d verdict" a.Engines.sw_bound)
              true
              (verdict_eq a.Engines.sw_run.Engines.verdict
                 b.Engines.sw_run.Engines.verdict))
         seqs pars)
    [ (3, [ 2; 4; 6; 8; 10; 12 ]); (2, [ 6; 2; 8; 2 ]) ]

(* ---- per-worker snapshots merge ---- *)

let test_merge_snapshots () =
  let o1 = Obs.create () and o2 = Obs.create () in
  Obs.incr o1 "shared";
  Obs.incr o2 "shared";
  Obs.incr o2 "shared";
  Obs.incr o2 "only2";
  Obs.span o1 Obs.Bcp (fun () -> ());
  Obs.span o2 Obs.Bcp (fun () -> ());
  Obs.observe_learned_len o1 2;
  Obs.observe_learned_len o2 3;
  let s1 = Obs.snapshot o1 and s2 = Obs.snapshot o2 in
  let m = Obs.merge_snapshots [ s1; s2 ] in
  check_int "counters sum" 3 (List.assoc "shared" m.Obs.counter_values);
  check_int "disjoint counters kept" 1 (List.assoc "only2" m.Obs.counter_values);
  let bcp_calls =
    List.fold_left
      (fun acc (name, _, calls) -> if name = "bcp" then calls else acc)
      0 m.Obs.phases
  in
  check_int "phase entries sum" 2 bcp_calls;
  let learned = List.assoc "learned_clause_len" m.Obs.histograms in
  check_int "histogram n sums" 2 learned.Rtlsat_obs.Hist.n;
  check_bool "wall is the max" true
    (m.Obs.wall >= s1.Obs.wall && m.Obs.wall >= s2.Obs.wall);
  let z = Obs.merge_snapshots [] in
  check_int "empty merge is all-zero" 0 (List.length z.Obs.counter_values)

(* ---- the clause exchange ---- *)

let test_exchange_basics () =
  let x = Exchange.create 8 in
  check_int "capacity" 8 (Exchange.capacity x);
  Exchange.push x 1;
  Exchange.push x 2;
  Exchange.push x 3;
  let got = ref [] in
  Exchange.drain x (fun v -> got := v :: !got);
  check_int "drained all" 3 (List.length !got);
  check_int "pushed counter" 3 (Exchange.pushed x);
  check_int "taken counter" 3 (Exchange.taken x);
  Exchange.drain x (fun v -> got := v :: !got);
  check_int "second drain finds nothing" 3 (List.length !got)

let test_exchange_lossy () =
  (* overfilling a 2-cell ring keeps at most 2 values; the push
     counter still records every offer *)
  let x = Exchange.create 2 in
  for i = 1 to 5 do Exchange.push x i done;
  let got = ref [] in
  Exchange.drain x (fun v -> got := v :: !got);
  check_bool "at most capacity survives" true (List.length !got <= 2);
  check_int "all pushes counted" 5 (Exchange.pushed x)

let test_exchange_multidomain () =
  (* capacity above total pushes: the fetch-and-add cursor gives every
     push its own cell, so nothing is lost even across domains *)
  let n_domains = 4 and per = 100 in
  let x = Exchange.create 1024 in
  let doms =
    Array.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Exchange.push x ((d * per) + i)
            done))
  in
  Array.iter Domain.join doms;
  let got = ref [] in
  Exchange.drain x (fun v -> got := v :: !got);
  check_int "every push drained" (n_domains * per) (List.length !got);
  check_int "no duplicates" (n_domains * per)
    (List.length (List.sort_uniq compare !got))

let () =
  Alcotest.run "parallel"
    [
      ( "race",
        [
          Alcotest.test_case "fast wins, slow cancelled" `Quick
            test_race_fast_wins;
          Alcotest.test_case "worker exception tolerated" `Quick
            test_race_survives_exception;
        ] );
      ( "ledger",
        [ Alcotest.test_case "multi-domain appends" `Quick test_ledger_stress ]
      );
      Qutil.qsuite "equivalence" [ prop_portfolio_equiv ];
      ( "cube",
        [
          Alcotest.test_case "probe decides easy instances" `Quick
            test_cube_probe_decides;
          Alcotest.test_case "cubes refute a hard unsat" `Slow
            test_cube_conquers;
        ] );
      ( "sweep",
        [ Alcotest.test_case "bound-parallel == sequential" `Quick
            test_sweep_matches ] );
      ( "obs",
        [ Alcotest.test_case "merge_snapshots" `Quick test_merge_snapshots ] );
      ( "exchange",
        [
          Alcotest.test_case "push/drain" `Quick test_exchange_basics;
          Alcotest.test_case "lossy overwrite" `Quick test_exchange_lossy;
          Alcotest.test_case "multi-domain" `Quick test_exchange_multidomain;
        ] );
    ]
