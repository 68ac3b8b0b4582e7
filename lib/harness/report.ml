module Json = Rtlsat_obs.Json
module Obs = Rtlsat_obs.Obs
module Solver = Rtlsat_core.Solver

let verdict_string = function
  | Engines.Sat -> "sat"
  | Engines.Unsat -> "unsat"
  | Engines.Timeout -> "timeout"
  | Engines.Abort _ -> "abort"

let stats_json (st : Solver.stats) =
  Json.Obj
    [
      ("decisions", Json.Int st.Solver.decisions);
      ("conflicts", Json.Int st.Solver.conflicts);
      ("propagations", Json.Int st.Solver.propagations);
      ("learned", Json.Int st.Solver.learned);
      ("jconflicts", Json.Int st.Solver.jconflicts);
      ("final_checks", Json.Int st.Solver.final_checks);
      ("splits", Json.Int st.Solver.splits);
      ("relations", Json.Int st.Solver.relations);
      ("learn_time_s", Json.Float st.Solver.learn_time);
      ("solve_time_s", Json.Float st.Solver.solve_time);
    ]

let run_json engine (r : Engines.run) =
  let base =
    [
      ("engine", Json.Str (Engines.engine_name engine));
      ("verdict", Json.Str (verdict_string r.Engines.verdict));
      ("time_s", Json.Float r.Engines.time);
      ("decisions", Json.Int r.Engines.decisions);
      ("conflicts", Json.Int r.Engines.conflicts);
      ("relations", Json.Int r.Engines.relations);
      ("learn_time_s", Json.Float r.Engines.learn_time);
    ]
  in
  let abort =
    match r.Engines.verdict with
    | Engines.Abort msg -> [ ("abort_reason", Json.Str msg) ]
    | _ -> []
  in
  let stats =
    match r.Engines.stats with
    | Some st -> [ ("stats", stats_json st) ]
    | None -> []
  in
  let metrics =
    match r.Engines.metrics with
    | Some m -> [ ("metrics", Obs.snapshot_json m) ]
    | None -> []
  in
  Json.Obj (base @ abort @ stats @ metrics)

let solve_json ~instance ~bound engine r =
  match run_json engine r with
  | Json.Obj fields ->
    Json.Obj
      (("schema", Json.Str "rtlsat.solve/1")
       :: ("instance", Json.Str instance)
       :: ("bound", Json.Int bound)
       :: ("env", Rtlsat_obs.Env.fingerprint_json ())
       :: fields)
  | v -> v

let fuzz_json ~seed ~count ~instances ~sat ~unsat ~timeouts ~wall_s ~failures
    ~metrics =
  let metrics =
    match metrics with
    | Some m -> [ ("metrics", Obs.snapshot_json m) ]
    | None -> []
  in
  Json.Obj
    ([
       ("schema", Json.Str "rtlsat.fuzz/1");
       ("seed", Json.Int seed);
       ("count", Json.Int count);
       ("instances", Json.Int instances);
       ("sat", Json.Int sat);
       ("unsat", Json.Int unsat);
       ("timeouts", Json.Int timeouts);
       ("failures", Json.Int (List.length failures));
       ("failure_cases", Json.Arr failures);
       ("wall_s", Json.Float wall_s);
     ]
     @ metrics)
