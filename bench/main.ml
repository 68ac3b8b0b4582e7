(* Benchmark harness: regenerates every table of the paper's
   evaluation and runs Bechamel micro-benchmarks (one Test.make per
   table) on representative instances.

   Default run: scaled-down bound matrix (minutes on a laptop).
   RTLSAT_FULL=1 or --full switches to the paper's full bounds with
   the 1200 s timeout.

   Usage: main.exe [--full] [--json [--json-file FILE]] [SUBCOMMAND]

   Subcommands:
     (none) | all      tables 1 and 2 + extension + wide_wrap + ablation + micro
     table1            Table 1 only
     table2            Table 2 only
     micro             Bechamel micro-benchmarks only
     ablation          decision/learning ablation sweep (see below)
     extension         suite-extension circuits
     wide_wrap         wrap-around corners over wide words (w61 family)
     sweep             scaling curve (CSV)
     bmc_sweep         incremental sessions vs from-scratch bound sweeps
     simplify          pre/inprocessing on vs off, per clause database
     parallel          -j 1 vs -j N engine portfolio (speedup rows)

   --json collects tables 1 and 2 with per-run metrics attached and
   writes a BENCH_<timestamp>.json perf-trajectory artifact (schema
   rtlsat.bench/1, see docs/OBSERVABILITY.md). *)

module Engines = Rtlsat_harness.Engines
module Tables = Rtlsat_harness.Tables
module Report = Rtlsat_harness.Report
module Json = Rtlsat_obs.Json
module Ledger = Rtlsat_obs.Ledger
module Mono = Rtlsat_obs.Mono
module Registry = Rtlsat_itc99.Registry
module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver

(* ---- command line (stdlib Arg; previously a raw Sys.argv scan that
   mistook "--full" anywhere — including file names — for the flag) ---- *)

let opt_full = ref (Sys.getenv_opt "RTLSAT_FULL" = Some "1")
let opt_json = ref false
let opt_json_file = ref ""
let opt_ledger = ref ""
let opt_no_ledger = ref false
let subcommand = ref "all"

let usage =
  "main.exe [--full] [--json [--json-file FILE]] \
   [all|table1|table2|micro|ablation|extension|wide_wrap|sweep|bmc_sweep|simplify|parallel]"

let spec =
  Arg.align
    [
      ("--full", Arg.Set opt_full,
       " Paper's full bound matrix and 1200 s timeout (also: RTLSAT_FULL=1)");
      ("--json", Arg.Set opt_json,
       " Write a BENCH_<timestamp>.json perf-trajectory artifact");
      ("--json-file", Arg.Set_string opt_json_file,
       "FILE Override the artifact path (default BENCH_<timestamp>.json)");
      ("--ledger", Arg.Set_string opt_ledger,
       "FILE Append the run record to this ledger \
        (default $RTLSAT_LEDGER or .rtlsat/ledger.jsonl)");
      ("--no-ledger", Arg.Set opt_no_ledger,
       " Do not append a rtlsat.run/1 record to the cross-run ledger");
    ]

let anon cmd =
  match cmd with
  | "all" | "table1" | "table2" | "micro" | "ablation" | "extension"
  | "wide_wrap" | "sweep" | "bmc_sweep" | "simplify" | "parallel" ->
    subcommand := cmd
  | _ -> raise (Arg.Bad (Printf.sprintf "unknown subcommand %S" cmd))

let scale () : Tables.scale = if !opt_full then `Full else `Scaled

(* ---- bechamel micro-benchmarks ---- *)

let solve_with options (circuit, prop, bound) () =
  let inst = Registry.instance ~circuit ~prop ~bound in
  let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
  E.assume_bool enc inst.Bmc.violation true;
  ignore (Solver.solve ~options enc)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let t1_instance = ("b13", "1", 20) in
  let t2_instance = ("b13", "2", 20) in
  let tests =
    Test.make_grouped ~name:"tables"
      [
        (* Table 1's comparison: HDPLL with and without predicate learning *)
        Test.make ~name:"table1/hdpll/b13_1(20)"
          (Staged.stage (solve_with Solver.hdpll t1_instance));
        Test.make ~name:"table1/hdpll+p/b13_1(20)"
          (Staged.stage (solve_with Solver.hdpll_p t1_instance));
        (* Table 2's comparison: the structural decision strategy *)
        Test.make ~name:"table2/hdpll/b13_2(20)"
          (Staged.stage (solve_with Solver.hdpll t2_instance));
        Test.make ~name:"table2/hdpll+s/b13_2(20)"
          (Staged.stage (solve_with Solver.hdpll_s t2_instance));
        Test.make ~name:"table2/hdpll+s+p/b13_2(20)"
          (Staged.stage (solve_with Solver.hdpll_sp t2_instance));
      ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~kde:(Some 20) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "@.Bechamel micro-benchmarks (monotonic clock per solve):@.";
  let rows =
    Hashtbl.fold (fun name o acc -> (name, o) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, o) ->
       match Analyze.OLS.estimates o with
       | Some [ est ] -> Format.printf "  %-32s %10.3f ms/run@." name (est /. 1e6)
       | _ -> Format.printf "  %-32s (no estimate)@." name)
    rows

(* ---- ablation sweep (DESIGN.md extension): the individual value of
   each strategy and the learning threshold ---- *)

let ablation () =
  Format.printf "@.Ablation: decision strategy x predicate learning on b13_2(50)@.";
  let run name options =
    let inst = Registry.instance ~circuit:"b13" ~prop:"2" ~bound:50 in
    let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
    E.assume_bool enc inst.Bmc.violation true;
    let t0 = Mono.now () in
    let { Solver.result; stats; _ } = Solver.solve ~options enc in
    Format.printf "  %-28s %-2s %7.2fs  dec=%-6d cfl=%-6d rels=%d@." name
      (match result with
       | Solver.Sat _ -> "S" | Solver.Unsat -> "U" | Solver.Timeout -> "to")
      (Mono.now () -. t0)
      stats.Solver.decisions stats.Solver.conflicts stats.Solver.relations
  in
  run "base (no S, no P)" Solver.hdpll;
  run "+S" Solver.hdpll_s;
  run "+P" Solver.hdpll_p;
  run "+S+P" Solver.hdpll_sp;
  run "+S+P, no restarts" { Solver.hdpll_sp with Solver.restarts = false };
  run "+S+P, no fanout seeding" { Solver.hdpll_sp with Solver.seed_fanout = false };
  Format.printf "@.Learning-threshold sweep (+S+P on b13_1(50)):@.";
  List.iter
    (fun threshold ->
       let inst = Registry.instance ~circuit:"b13" ~prop:"1" ~bound:50 in
       let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
       E.assume_bool enc inst.Bmc.violation true;
       let options = { Solver.hdpll_sp with Solver.learn_threshold = Some threshold } in
       let t0 = Mono.now () in
       let { Solver.result = _; stats; _ } = Solver.solve ~options enc in
       Format.printf "  threshold %-6d -> %7.2fs  rels=%-6d learn=%.2fs@." threshold
         (Mono.now () -. t0)
         stats.Solver.relations stats.Solver.learn_time)
    [ 0; 100; 500; 2000; 5000 ]

(* scaling curve: solve time vs unrolling bound, one series per
   engine — CSV on stdout, plot with any tool *)
let sweep () =
  let bounds = [ 25; 50; 75; 100; 150; 200 ] in
  let engines = [ Engines.Hdpll; Engines.Hdpll_s; Engines.Hdpll_sp; Engines.Bitblast ] in
  Format.printf "@.Scaling sweep: b13_1(k), time in seconds per engine@.";
  Format.printf "bound%s@."
    (String.concat ""
       (List.map (fun e -> "," ^ Engines.engine_name e) engines));
  List.iter
    (fun bound ->
       Format.printf "%d" bound;
       List.iter
         (fun e ->
            let inst = Registry.instance ~circuit:"b13" ~prop:"1" ~bound in
            let r =
              Engines.run_instance
                ~req:(Rtlsat_harness.Req.make ~timeout:120.0 ())
                e inst
            in
            match r.Engines.verdict with
            | Engines.Sat | Engines.Unsat -> Format.printf ",%.3f" r.Engines.time
            | _ -> Format.printf ",")
         engines;
       Format.printf "@.")
    bounds

let table1 () =
  let rows = Tables.run_table1 (scale ()) in
  Tables.print_table1 Format.std_formatter rows

let table2 () =
  let rows = Tables.run_table2 (scale ()) in
  Tables.print_table2 Format.std_formatter rows

let extension () =
  Format.printf "@.Suite extension (beyond the paper's benchmark subset):@.";
  Tables.print_table2 Format.std_formatter (Tables.run_extension ())

let bmc_sweep () =
  Format.printf
    "@.bmc_sweep family (one solver session per design and engine; each bound \
     posed as an assumption, vs from-scratch re-solves):@.";
  Tables.print_bmc_sweep Format.std_formatter (Tables.run_bmc_sweep (scale ()))

let simplify () =
  Format.printf
    "@.simplify family (pre/inprocessing on vs off over both clause \
     databases; the on arm's counters show the reduction):@.";
  Tables.print_simplify Format.std_formatter (Tables.run_simplify (scale ()))

(* ---- parallel family: the requested engine alone vs a -j N
   portfolio race over domains.  Cases are picked where the requested
   engine is hopeless (times out) but another engine in the lineup is
   fast, so even on one core — where the portfolio only time-shares —
   first-finisher-wins cancellation turns a timeout into ≈ N x the
   fastest engine's time.  Both cases race the lazy CDP — the engine
   with the widest gap to the hybrids — on deep unrollings it cannot
   finish: a Sat one (b01_1) and an Unsat one (b04_1), rescued by
   different winners.  On multi-core hardware the race also helps when
   the gap is small; on one core the overhead of racing N allocating
   domains (minor-GC barriers) is far above Nx, so only
   timeout-vs-instant gaps pay — see DESIGN.md. *)

module Parallel = Rtlsat_parallel.Parallel

let parallel_jobs = 4

let parallel_cases =
  [
    ("b01", "1", 100, Engines.Lazy_cdp, 10.0);
    ("b04", "1", 300, Engines.Lazy_cdp, 10.0);
  ]

let run_parallel () =
  List.map
    (fun (circuit, prop, bound, engine, timeout) ->
       let req = Rtlsat_harness.Req.make ~timeout () in
       let seq =
         Engines.run_instance ~req engine
           (Registry.instance ~circuit ~prop ~bound)
       in
       let p =
         Parallel.portfolio ~req ~j:parallel_jobs ~engine
           (Registry.instance ~circuit ~prop ~bound)
       in
       {
         Report.pl_instance = Registry.instance_name ~circuit ~prop ~bound;
         pl_engine = engine;
         pl_j = parallel_jobs;
         pl_seq = seq;
         pl_par = { p.Parallel.p_run with Engines.time = p.Parallel.p_wall };
         pl_winner = Option.map Engines.engine_name p.Parallel.p_winner;
         pl_lineup =
           List.map (fun (e, _) -> Engines.engine_name e) p.Parallel.p_runs;
       })
    parallel_cases

let print_parallel rows =
  Format.printf "%-12s %-10s %3s %9s %9s %8s  %s@." "instance" "engine" "j"
    "seq(s)" "par(s)" "speedup" "winner";
  List.iter
    (fun (r : Report.parallel_row) ->
       let cell (run : Engines.run) =
         match run.Engines.verdict with
         | Engines.Timeout -> Printf.sprintf "%9s" "-to-"
         | Engines.Abort _ -> Printf.sprintf "%9s" "-A-"
         | _ -> Printf.sprintf "%9.2f" run.Engines.time
       in
       Format.printf "%-12s %-10s %3d %s %s %7.1fx  %s@." r.Report.pl_instance
         (Engines.engine_name r.Report.pl_engine)
         r.Report.pl_j (cell r.Report.pl_seq) (cell r.Report.pl_par)
         (if r.Report.pl_par.Engines.time > 0.0 then
            r.Report.pl_seq.Engines.time /. r.Report.pl_par.Engines.time
          else 0.0)
         (match r.Report.pl_winner with Some w -> w | None -> "-"))
    rows

let parallel () =
  Format.printf
    "@.parallel family (requested engine at -j 1 vs a -j %d portfolio race \
     with first-finisher-wins cancellation):@."
    parallel_jobs;
  print_parallel (run_parallel ())

let wide_wrap () =
  Format.printf
    "@.wide_wrap family (wrap-around corners over wide words; every case Sat \
     at exactly one corner):@.";
  Tables.print_table2 Format.std_formatter (Tables.run_wide_wrap ())

(* ---- the perf-trajectory artifact: both tables with per-run
   metrics, one timestamped JSON file per invocation ---- *)

let bench_artifact () =
  let sc = scale () in
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  let stamp =
    Printf.sprintf "%04d%02d%02d_%02d%02d%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let generated_at =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let path =
    if !opt_json_file <> "" then !opt_json_file else "BENCH_" ^ stamp ^ ".json"
  in
  let scale_str = Tables.scale_name sc in
  Format.printf "collecting Table 1 with metrics...@.";
  let t1 = Tables.run_table1 ~metrics:true sc in
  Tables.print_table1 Format.std_formatter t1;
  Format.printf "@.collecting Table 2 with metrics...@.";
  let t2 = Tables.run_table2 ~metrics:true sc in
  Tables.print_table2 Format.std_formatter t2;
  Format.printf "@.collecting wide_wrap with metrics...@.";
  let ww = Tables.run_wide_wrap ~metrics:true () in
  Tables.print_table2 Format.std_formatter ww;
  Format.printf "@.collecting bmc_sweep with metrics...@.";
  let sw = Tables.run_bmc_sweep ~metrics:true sc in
  Tables.print_bmc_sweep Format.std_formatter sw;
  Format.printf "@.collecting simplify with metrics...@.";
  let sy = Tables.run_simplify ~metrics:true sc in
  Tables.print_simplify Format.std_formatter sy;
  Format.printf "@.collecting parallel speedups...@.";
  let pl = run_parallel () in
  print_parallel pl;
  let doc =
    Report.bench_json ~generated_at ~scale:scale_str
      ~sections:
        [
          ("table1", Report.table1_json ~scale:scale_str t1);
          ("table2", Report.table2_json ~scale:scale_str t2);
          ("wide_wrap", Report.table2_json ~scale:scale_str ww);
          ("bmc_sweep", Report.bmc_sweep_json ~scale:scale_str sw);
          ("simplify", Report.simplify_json ~scale:scale_str sy);
          ("parallel", Report.parallel_json ~scale:scale_str pl);
        ]
  in
  let oc = open_out path in
  Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Format.printf "@.perf-trajectory artifact written to %s@." path;
  Format.printf
    "compare against a committed baseline with: rtlsat bench-diff \
     BENCH_<old>.json %s@."
    path;
  path

(* one rtlsat.run/1 record per invocation, same ledger the rtlsat
   subcommands append to — so `rtlsat runs` sees bench runs too *)
let ledger_append ~wall_s ~artifact =
  if not !opt_no_ledger then begin
    let path =
      if !opt_ledger <> "" then !opt_ledger else Ledger.default_path ()
    in
    let options =
      Printf.sprintf "scale=%s,json=%b" (Tables.scale_name (scale ())) !opt_json
    in
    let record =
      Ledger.make ~subcommand:"bench" ~argv:(Array.to_list Sys.argv)
        ~instance:!subcommand ~engine:"all" ~options ~verdict:"ok" ~wall_s
        ~counters:[]
        ~artifacts:(match artifact with None -> [] | Some a -> [ ("bench", a) ])
        ()
    in
    try Ledger.append ~path record with
    | Sys_error msg -> Format.eprintf "bench: ledger: %s@." msg
    | Unix.Unix_error (e, _, _) ->
      Format.eprintf "bench: ledger: %s@." (Unix.error_message e)
  end

let () =
  Arg.parse spec anon usage;
  Format.printf
    "rtlsat benchmark harness — reproduction of DAC'05 \"Structural Search@.\
     for RTL with Predicate Learning\" (%s)@.@."
    (if !opt_full then "FULL matrix" else "scaled bounds; --full or RTLSAT_FULL=1 for the paper's");
  let t0 = Mono.now () in
  let artifact =
    if !opt_json then Some (bench_artifact ())
    else begin
      (match !subcommand with
       | "table1" -> table1 ()
       | "table2" -> table2 ()
       | "micro" -> micro ()
       | "ablation" -> ablation ()
       | "extension" -> extension ()
       | "wide_wrap" -> wide_wrap ()
       | "sweep" -> sweep ()
       | "bmc_sweep" -> bmc_sweep ()
       | "simplify" -> simplify ()
       | "parallel" -> parallel ()
       | _ ->
         table1 ();
         Format.printf "@.";
         table2 ();
         extension ();
         wide_wrap ();
         bmc_sweep ();
         simplify ();
         parallel ();
         ablation ();
         micro ());
      None
    end
  in
  ledger_append ~wall_s:(Mono.now () -. t0) ~artifact
