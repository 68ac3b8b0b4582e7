(* Benchmark harness: regenerates every table of the paper's
   evaluation and runs Bechamel micro-benchmarks (one Test.make per
   table) on representative instances.

   Default run: scaled-down bound matrix (minutes on a laptop).
   --full switches to the paper's full bounds with the 1200 s timeout.

   Usage: main.exe [--full] [SUBCOMMAND]

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
     simplify          pre/inprocessing on vs off, per clause database *)

module Engines = Rtlsat_harness.Engines
module Tables = Rtlsat_harness.Tables
module Ledger = Rtlsat_obs.Ledger
module Mono = Rtlsat_obs.Mono
module Registry = Rtlsat_itc99.Registry
module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver

(* ---- command line (stdlib Arg; previously a raw Sys.argv scan that
   mistook "--full" anywhere — including file names — for the flag) ---- *)

let opt_full = ref false
let opt_ledger = ref ""
let opt_no_ledger = ref false
let subcommand = ref "all"

let usage =
  "main.exe [--full] \
   [all|table1|table2|micro|ablation|extension|wide_wrap|sweep|bmc_sweep|simplify]"

let spec =
  Arg.align
    [
      ("--full", Arg.Set opt_full,
       " Paper's full bound matrix and 1200 s timeout");
      ("--ledger", Arg.Set_string opt_ledger,
       "FILE Append the run record to this ledger \
        (default $RTLSAT_LEDGER or .rtlsat/ledger.jsonl)");
      ("--no-ledger", Arg.Set opt_no_ledger,
       " Do not append a rtlsat.run/1 record to the cross-run ledger");
    ]

let anon cmd =
  match cmd with
  | "all" | "table1" | "table2" | "micro" | "ablation" | "extension"
  | "wide_wrap" | "sweep" | "bmc_sweep" | "simplify" ->
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

let wide_wrap () =
  Format.printf
    "@.wide_wrap family (wrap-around corners over wide words; every case Sat \
     at exactly one corner):@.";
  Tables.print_table2 Format.std_formatter (Tables.run_wide_wrap ())

(* one rtlsat.run/1 record per invocation, same ledger the rtlsat
   subcommands append to — so `rtlsat runs` sees bench runs too *)
let ledger_append ~wall_s =
  if not !opt_no_ledger then begin
    let path =
      if !opt_ledger <> "" then !opt_ledger else Ledger.default_path ()
    in
    let options = Printf.sprintf "scale=%s" (Tables.scale_name (scale ())) in
    let record =
      Ledger.make ~subcommand:"bench" ~argv:(Array.to_list Sys.argv)
        ~instance:!subcommand ~engine:"all" ~options ~verdict:"ok" ~wall_s
        ~counters:[] ~artifacts:[] ()
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
    (if !opt_full then "FULL matrix" else "scaled bounds; --full for the paper's");
  let t0 = Mono.now () in
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
   | _ ->
     table1 ();
     Format.printf "@.";
     table2 ();
     extension ();
     wide_wrap ();
     bmc_sweep ();
     simplify ();
     ablation ();
     micro ());
  ledger_append ~wall_s:(Mono.now () -. t0)
