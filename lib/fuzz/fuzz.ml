module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json
module Mono = Rtlsat_obs.Mono
module Engines = Rtlsat_harness.Engines
module Req = Rtlsat_harness.Req
module Report = Rtlsat_harness.Report

type config = {
  seed : int;
  count : int;
  gen : Gen.cfg;
  engines : Engines.engine list;
  req : Req.t;
  deadline : float;
  cert_budget : int;
  shrink_steps : int;
  obs : Obs.t;
  log : (int -> Case.t -> Oracle.outcome -> unit) option;
}

let default =
  {
    seed = 0;
    count = 100;
    gen = Gen.default;
    engines = Oracle.default_engines;
    req = Req.make ~timeout:2.0 ();
    deadline = infinity;
    cert_budget = 4096;
    shrink_steps = 128;
    obs = Obs.disabled;
    log = None;
  }

type failure = {
  f_index : int;
  f_seed : int;
  f_case : Case.t;
  f_outcome : Oracle.outcome;
  f_steps : int;
}

type summary = {
  instances : int;
  sat : int;
  unsat : int;
  timeouts : int;
  wall : float;
  failures : failure list;
  stopped_early : bool;
}

let instance_seed cfg i = cfg.seed + i

let run cfg =
  let t0 = Mono.now () in
  let elapsed () = Mono.now () -. t0 in
  let sat = ref 0 and unsat = ref 0 and timeouts = ref 0 in
  let instances = ref 0 in
  let failures = ref [] in
  let stopped = ref false in
  let i = ref 0 in
  (* rate-limited campaign telemetry, so a long campaign's trace shows
     where the time went even before the summary *)
  let last_progress = ref 0.0 in
  let progress () =
    if Obs.tracing cfg.obs then begin
      let now = elapsed () in
      if now -. !last_progress >= 0.5 then begin
        last_progress := now;
        Obs.event cfg.obs "fuzz.progress"
          [
            ("instances", Json.Int !instances);
            ("sat", Json.Int !sat);
            ("unsat", Json.Int !unsat);
            ("timeouts", Json.Int !timeouts);
            ("failures", Json.Int (List.length !failures));
            ("rate", Json.Float (float_of_int !instances /. max now 1e-9));
          ]
      end
    end
  in
  while !i < cfg.count && not !stopped do
    if elapsed () > cfg.deadline then stopped := true
    else begin
      let iseed = instance_seed cfg !i in
      let case = Gen.circuit ~cfg:cfg.gen ~seed:iseed () in
      let oracle c =
        Oracle.check ~engines:cfg.engines ~req:cfg.req
          ~cert_budget:cfg.cert_budget ~seed:iseed c
      in
      let outcome = oracle case in
      incr instances;
      Obs.incr cfg.obs "fuzz.instances";
      let has v =
        List.exists (fun (_, w) -> w = v) outcome.Oracle.verdicts
      in
      if has Engines.Sat then (incr sat; Obs.incr cfg.obs "fuzz.sat")
      else if has Engines.Unsat then (incr unsat; Obs.incr cfg.obs "fuzz.unsat")
      else (incr timeouts; Obs.incr cfg.obs "fuzz.timeouts");
      (match cfg.log with Some f -> f !i case outcome | None -> ());
      (match outcome.Oracle.failure with
       | None -> ()
       | Some _ ->
         Obs.incr cfg.obs "fuzz.discrepancies";
         let still_failing c = (oracle c).Oracle.failure <> None in
         let small, steps =
           Shrink.shrink ~max_steps:cfg.shrink_steps ~still_failing case
         in
         Obs.add cfg.obs "fuzz.shrink_steps" steps;
         let f_outcome = oracle small in
         failures :=
           { f_index = !i; f_seed = iseed; f_case = small; f_outcome;
             f_steps = steps }
           :: !failures);
      progress ();
      incr i
    end
  done;
  {
    instances = !instances;
    sat = !sat;
    unsat = !unsat;
    timeouts = !timeouts;
    wall = elapsed ();
    failures = List.rev !failures;
    stopped_early = !stopped;
  }

let failure_reason (o : Oracle.outcome) =
  match o.Oracle.failure with
  | None -> "none"
  | Some Oracle.Disagree -> "disagreement"
  | Some (Oracle.Witness_rejected (e, _)) ->
    "witness-rejected:" ^ Engines.engine_name e
  | Some (Oracle.Unsat_refuted _) -> "unsat-refuted"

let failure_json f =
  Json.Obj
    [
      ("index", Json.Int f.f_index);
      ("seed", Json.Int f.f_seed);
      ("reason", Json.Str (failure_reason f.f_outcome));
      ("verdicts",
       Json.Obj
         (List.map
            (fun (e, v) ->
               (Engines.engine_name e, Json.Str (Report.verdict_string v)))
            f.f_outcome.Oracle.verdicts));
      ("bound", Json.Int f.f_case.Case.bound);
      ("semantics", Json.Str (Case.semantics_name f.f_case.Case.semantics));
      ("shrink_steps", Json.Int f.f_steps);
      ("circuit", Json.Str (Case.to_string f.f_case));
    ]

let summary_json cfg s =
  Report.fuzz_json ~seed:cfg.seed ~count:cfg.count ~instances:s.instances
    ~sat:s.sat ~unsat:s.unsat ~timeouts:s.timeouts ~wall_s:s.wall
    ~failures:(List.map failure_json s.failures)
    ~metrics:
      (if cfg.obs.Obs.enabled then Some (Obs.snapshot cfg.obs) else None)
