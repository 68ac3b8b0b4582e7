module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module Structure = Rtlsat_rtl.Structure
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Cdcl = Rtlsat_sat.Cdcl
module Bb = Rtlsat_baselines.Bitblast
module Lz = Rtlsat_baselines.Lazy_cdp
module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json
module Mono = Rtlsat_obs.Mono

type engine = Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p | Bitblast | Lazy_cdp

let engine_name = function
  | Hdpll -> "hdpll"
  | Hdpll_s -> "hdpll+s"
  | Hdpll_sp -> "hdpll+s+p"
  | Hdpll_p -> "hdpll+p"
  | Bitblast -> "bitblast"
  | Lazy_cdp -> "lazy-cdp"

let all_engines = [ Hdpll; Hdpll_s; Hdpll_sp; Hdpll_p; Bitblast; Lazy_cdp ]

let engine_of_name s =
  List.find_opt (fun e -> String.equal (engine_name e) s) all_engines

let table2_engines = [ Hdpll; Hdpll_s; Hdpll_sp; Bitblast; Lazy_cdp ]

type verdict = Sat | Unsat | Timeout | Abort of string

let verdict_symbol = function
  | Sat -> "S"
  | Unsat -> "U"
  | Timeout -> "-to-"
  | Abort _ -> "-A-"

type run = {
  verdict : verdict;
  time : float;
  relations : int;
  learn_time : float;
  decisions : int;
  conflicts : int;
  stats : Solver.stats option;
  metrics : Obs.snapshot option;
  witness : (Rtlsat_rtl.Ir.node * int) list list;
}

type sweep_step = {
  sw_bound : int;
  sw_run : run;
  sw_carried_clauses : int;
  sw_carried_relations : int;
}

let sweep_verdict steps =
  let has p = List.exists (fun s -> p s.sw_run.verdict) steps in
  if has (( = ) Sat) then Sat
  else if has (( = ) Timeout) then Timeout
  else
    match
      List.find_opt
        (fun s -> match s.sw_run.verdict with Abort _ -> true | _ -> false)
        steps
    with
    | Some s -> s.sw_run.verdict
    | None -> Unsat

let snap obs = if obs.Obs.enabled then Some (Obs.snapshot obs) else None

(* ---- helpers shared by the kernels ---- *)

let solver_options engine (req : Req.t) =
  let base =
    match engine with
    | Hdpll -> Solver.hdpll
    | Hdpll_s -> Solver.hdpll_s
    | Hdpll_sp -> Solver.hdpll_sp
    | Hdpll_p -> Solver.hdpll_p
    | Bitblast | Lazy_cdp ->
      invalid_arg
        ("Engines.solver_options: " ^ engine_name engine
         ^ " is not a hybrid engine")
  in
  {
    base with
    Solver.learn_threshold = req.Req.learn_threshold;
    obs = req.Req.obs;
    dump_graph = req.Req.dump_graph;
    dump_graph_max = req.Req.dump_graph_max;
    split = req.Req.split;
    simplify = req.Req.simplify;
    inprocess = req.Req.inprocess;
    cancel = req.Req.cancel;
    on_learn = req.Req.on_learn;
  }

let encode_instance obs inst =
  Obs.span obs Obs.Encode (fun () ->
      let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
      E.assume_bool enc inst.Bmc.violation true;
      enc)

(* a Sat answer counts only once its model replays through Sim *)
let replay inst value =
  match Bmc.witness inst value with
  | Some inputs -> (Sat, inputs)
  | None -> (Abort "witness failed replay", [])

(* ---- one call of each kernel ----

   [knobs] is the request that fixed the context's policy (obs, cancel,
   simplify, inprocess); [deadline] comes from the request of this call.
   A one-shot run passes the same request for both. *)

(* the four hybrid configurations, over Solver.Session *)
let hybrid_call obs ~t0 ~deadline ?assumptions enc sess inst =
  let r = Solver.Session.solve ?assumptions ~deadline sess in
  let { Solver.result; stats; _ } = r.Solver.Session.outcome in
  let verdict, witness =
    match result with
    | Solver.Unsat -> (Unsat, [])
    | Solver.Timeout -> (Timeout, [])
    | Solver.Sat m -> replay inst (fun n -> m.(E.var enc n))
  in
  ( {
      verdict;
      time = Mono.now () -. t0;
      relations = stats.Solver.relations;
      learn_time = stats.Solver.learn_time;
      decisions = stats.Solver.decisions;
      conflicts = stats.Solver.conflicts;
      stats = Some stats;
      metrics = snap obs;
      witness;
    },
    r )

(* preprocess, then record the pass's work.  An encoding runs its one
   pass on the first call ({!Bb.simplify}), before any solve, so the
   solver's cumulative Simp counters are that pass's work alone; later
   sweep steps run no pass, so they open no span and emit no event. *)
let simplify_with_obs obs ~elim ~deadline ~cancel bb =
  if not (Bb.preprocessed bb) then
    Obs.span obs Obs.Simplify (fun () ->
        Bb.simplify ~elim ~deadline ~cancel bb;
        if obs.Obs.enabled then begin
          let st = Bb.simp_stats bb in
          let open Rtlsat_simplify.Simp in
          Obs.add obs "simplify.subsumed" st.subsumed;
          Obs.add obs "simplify.strengthened" st.strengthened;
          Obs.add obs "simplify.eliminated" st.eliminated;
          Obs.add obs "simplify.probed" st.probed;
          Obs.add obs "simplify.equivs" st.equivs;
          if Obs.tracing obs then
            Obs.event obs "simplify.pass"
              [ ("engine", Json.Str "cdcl");
                ("subsumed", Json.Int st.subsumed);
                ("strengthened", Json.Int st.strengthened);
                ("eliminated", Json.Int st.eliminated);
                ("probed", Json.Int st.probed);
                ("equivs", Json.Int st.equivs) ]
        end)

(* the eager bit-blast baseline, over Bitblast / Cdcl; [conflicts0] is
   the kernel's conflict count before this call *)
let blast_call (knobs : Req.t) ~t0 ~deadline ~elim ~conflicts0 ?assumptions bb
    inst =
  let obs = knobs.Req.obs and cancel = knobs.Req.cancel in
  if knobs.Req.simplify then simplify_with_obs obs ~elim ~deadline ~cancel bb;
  let verdict, witness =
    match
      Bb.solve ~deadline ~inprocess:knobs.Req.inprocess ~cancel ?assumptions bb
    with
    | Bb.Unsat -> (Unsat, [])
    | Bb.Timeout -> (Timeout, [])
    | Bb.Sat -> replay inst (Bb.node_value bb)
  in
  {
    verdict;
    time = Mono.now () -. t0;
    relations = 0;
    learn_time = 0.0;
    decisions = 0;
    conflicts = Cdcl.n_conflicts (Bb.solver bb) - conflicts0;
    stats = None;
    metrics = snap obs;
    witness;
  }

(* the lazy CDP baseline: every call is a fresh solve of [enc] *)
let lazy_call (knobs : Req.t) ~t0 ~deadline inst enc =
  let result, st = Lz.solve ~deadline ~cancel:knobs.Req.cancel enc.E.problem in
  let verdict, witness =
    match result with
    | Lz.Unsat -> (Unsat, [])
    | Lz.Timeout -> (Timeout, [])
    | Lz.Sat m -> replay inst (fun n -> m.(E.var enc n))
  in
  {
    verdict;
    time = Mono.now () -. t0;
    relations = 0;
    learn_time = 0.0;
    decisions = st.Lz.theory_calls;
    conflicts = st.Lz.blocking_clauses;
    stats = None;
    metrics = snap knobs.Req.obs;
    witness;
  }

(* ---- one-shot solves ---- *)

(* The violation selector is asserted as a unit clause and the encoding
   never grows, so destructive preprocessing (variable elimination on
   the bit-blast CNF) is sound.  The budget runs from the call's start,
   so it covers encoding too. *)
let run_instance ?(req = Req.default) engine inst =
  let t0 = Mono.now () in
  let deadline = Req.deadline_from req t0 in
  let obs = req.Req.obs in
  match engine with
  | Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p ->
    let enc = encode_instance obs inst in
    let sess = Solver.Session.create ~options:(solver_options engine req) enc in
    fst (hybrid_call obs ~t0 ~deadline enc sess inst)
  | Bitblast ->
    let bb =
      Obs.span obs Obs.Encode (fun () ->
          let bb = Bb.encode (Unroll.combo inst.Bmc.unrolled) in
          Bb.assume_bool bb inst.Bmc.violation true;
          bb)
    in
    blast_call req ~t0 ~deadline ~elim:true ~conflicts0:0 bb inst
  | Lazy_cdp -> lazy_call req ~t0 ~deadline inst (encode_instance obs inst)

(* ---- warm sessions ---- *)

type kernel =
  | Hybrid of E.t * Solver.Session.session
  | Blast of Bb.t
  | Scratch  (** the lazy CDP: a fresh encode and solve per bound *)

(* [s_req] fixes the session's policy for its lifetime *)
type session = { s_req : Req.t; sw : Bmc.sweep; kernel : kernel }

let session ~req ?semantics ?free_init engine source ~prop =
  let sw = Bmc.sweep source ~prop ?semantics ?free_init () in
  let encode f =
    Obs.span req.Req.obs Obs.Encode (fun () ->
        f (Unroll.combo (Bmc.sweep_unrolled sw)))
  in
  let kernel =
    match engine with
    | Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p ->
      let enc = encode E.encode in
      (* conflict graphs are exported by one-shot solves only: every
         sweep call would restart the file numbering *)
      let options = solver_options engine { req with Req.dump_graph = None } in
      Hybrid (enc, Solver.Session.create ~options enc)
    | Bitblast -> Blast (encode Bb.encode)
    | Lazy_cdp -> Scratch
  in
  { s_req = req; sw; kernel }

let sweep_step ~req s ~bound =
  let t0 = Mono.now () in
  let deadline = Req.deadline_from req t0 in
  let obs = s.s_req.Req.obs in
  let inst = Bmc.sweep_instance s.sw ~bound in
  match s.kernel with
  | Hybrid (enc, sess) ->
    Obs.span obs Obs.Encode (fun () -> E.extend enc);
    let sw_run, r =
      hybrid_call obs ~t0 ~deadline
        ~assumptions:[| Rtlsat_constr.Types.Pos (E.var enc inst.Bmc.violation) |]
        enc sess inst
    in
    {
      sw_bound = bound;
      sw_run;
      sw_carried_clauses = r.Solver.Session.carried_clauses;
      sw_carried_relations = r.Solver.Session.carried_relations;
    }
  | Blast bb ->
    Obs.span obs Obs.Encode (fun () -> Bb.extend bb);
    (* lemmas carried into this call: conflict-learned clauses retained
       so far, as counted by the CDCL kernel *)
    let sat = Bb.solver bb in
    let carried = Cdcl.n_learned sat in
    (* the encoding keeps growing and literals are assumed per bound, so
       variable elimination stays off — subsumption, probing and
       equivalent-literal substitution remain sound (assumptions and
       later clauses are rewritten through the substitution) *)
    let sw_run =
      blast_call s.s_req ~t0 ~deadline ~elim:false
        ~conflicts0:(Cdcl.n_conflicts sat)
        ~assumptions:[ Bb.bool_lit bb inst.Bmc.violation ]
        bb inst
    in
    {
      sw_bound = bound;
      sw_run;
      sw_carried_clauses = carried;
      sw_carried_relations = 0;
    }
  | Scratch ->
    {
      sw_bound = bound;
      sw_run = lazy_call s.s_req ~t0 ~deadline inst (encode_instance obs inst);
      sw_carried_clauses = 0;
      sw_carried_relations = 0;
    }

(* Per-bound sweep telemetry: point the heartbeat context at the
   current bound and bracket the solve with sweep.bound/sweep.result
   trace events, so a live monitor can tell which bound a long sweep
   is stuck on. *)
let sweep_with_obs obs ~total ~index ~bound f =
  if obs.Obs.enabled then begin
    Obs.set_context obs
      [
        ("bound", Json.Int bound);
        ("bound_index", Json.Int index);
        ("bounds_total", Json.Int total);
      ];
    if Obs.tracing obs then
      Obs.event obs "sweep.bound"
        [
          ("bound", Json.Int bound);
          ("index", Json.Int index);
          ("total", Json.Int total);
        ]
  end;
  let step = f () in
  if obs.Obs.enabled then begin
    if Obs.tracing obs then begin
      let verdict =
        match step.sw_run.verdict with
        | Sat -> "sat"
        | Unsat -> "unsat"
        | Timeout -> "timeout"
        | Abort _ -> "abort"
      in
      Obs.event obs "sweep.result"
        [
          ("bound", Json.Int bound);
          ("verdict", Json.Str verdict);
          ("time_s", Json.Float step.sw_run.time);
          ("carried_clauses", Json.Int step.sw_carried_clauses);
        ]
    end;
    if index = total - 1 then Obs.set_context obs []
  end;
  step

let run_sweep ?(req = Req.default) ?semantics engine source ~prop ~bounds =
  let sess = session ~req ?semantics engine source ~prop in
  let nbounds = List.length bounds in
  List.mapi
    (fun index bound ->
       sweep_with_obs req.Req.obs ~total:nbounds ~index ~bound @@ fun () ->
       sweep_step ~req sess ~bound)
    bounds

let op_counts (inst : Bmc.instance) =
  Structure.op_counts (Unroll.combo inst.Bmc.unrolled)
