module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Bb = Rtlsat_baselines.Bitblast
module Lz = Rtlsat_baselines.Lazy_cdp
module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json
module Mono = Rtlsat_obs.Mono

type id = Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p | Bitblast | Lazy_cdp

let name_of = function
  | Hdpll -> "hdpll"
  | Hdpll_s -> "hdpll+s"
  | Hdpll_sp -> "hdpll+s+p"
  | Hdpll_p -> "hdpll+p"
  | Bitblast -> "bitblast"
  | Lazy_cdp -> "lazy-cdp"

let all_ids = [ Hdpll; Hdpll_s; Hdpll_sp; Hdpll_p; Bitblast; Lazy_cdp ]

let of_name s =
  List.find_opt (fun id -> String.equal (name_of id) s) all_ids

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
}

type sweep_step = {
  sw_bound : int;
  sw_run : run;
  sw_carried_clauses : int;
  sw_carried_relations : int;
}

type caps = {
  supports_sessions : bool;
  supports_assumptions : bool;
  exports_learned_clauses : bool;
  honors_simplify : bool;
  honors_split : bool;
}

let caps_of = function
  | Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p ->
    {
      supports_sessions = true;
      supports_assumptions = true;
      exports_learned_clauses = true;
      honors_simplify = true;
      honors_split = true;
    }
  | Bitblast ->
    {
      supports_sessions = true;
      supports_assumptions = true;
      exports_learned_clauses = false;
      honors_simplify = true;
      honors_split = false;
    }
  | Lazy_cdp ->
    {
      supports_sessions = false;
      supports_assumptions = false;
      exports_learned_clauses = false;
      honors_simplify = false;
      honors_split = false;
    }

module type S = sig
  val id : id
  val name : string
  val caps : caps

  type session

  val create : req:Req.t -> Bmc.instance -> session

  val session :
    req:Req.t ->
    ?semantics:Bmc.semantics ->
    Rtlsat_rtl.Ir.circuit ->
    prop:Rtlsat_rtl.Ir.node ->
    session

  val solve : req:Req.t -> session -> run
  val sweep_step : req:Req.t -> session -> bound:int -> sweep_step
  val cancel : session -> unit
  val snapshot : session -> Obs.snapshot option
end

let snap obs = if obs.Obs.enabled then Some (Obs.snapshot obs) else None

let wrong_mode fn = invalid_arg ("Engine." ^ fn ^ ": wrong session mode")

(* ---- helpers shared by every engine and the parallel drivers ---- *)

let solver_options id (req : Req.t) =
  let base =
    match id with
    | Hdpll -> Solver.hdpll
    | Hdpll_s -> Solver.hdpll_s
    | Hdpll_sp -> Solver.hdpll_sp
    | Hdpll_p -> Solver.hdpll_p
    | Bitblast | Lazy_cdp ->
      invalid_arg ("Engine.solver_options: " ^ name_of id ^ " is not a hybrid engine")
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

let replay inst value =
  if Bmc.witness_ok inst value then Sat else Abort "witness failed replay"

(* ---- the four hybrid configurations, over Solver.Session ---- *)

module Make_hybrid (C : sig
    val id : id
  end) : S = struct
  let id = C.id
  let name = name_of C.id
  let caps = caps_of C.id

  (* Both context kinds drive one session.  A [create] context has its
     violation asserted as a unit clause of [enc] and replays against
     [inst]; a [session] context extends [enc] along [sweep] and poses
     each bound's violation as an assumption. *)
  type session = {
    s_req : Req.t;
    s_created : float;
    enc : E.t;
    sess : Solver.Session.session;
    inst : Bmc.instance option;
    sweep : Bmc.sweep option;
  }

  let create ~req inst =
    let t0 = Mono.now () in
    let enc = encode_instance req.Req.obs inst in
    let sess = Solver.Session.create ~options:(solver_options C.id req) enc in
    { s_req = req; s_created = t0; enc; sess; inst = Some inst; sweep = None }

  let session ~req ?semantics source ~prop =
    let sw = Bmc.sweep source ~prop ?semantics () in
    let enc =
      Obs.span req.Req.obs Obs.Encode (fun () ->
          E.encode (Unroll.combo (Bmc.sweep_unrolled sw)))
    in
    (* conflict graphs are exported by one-shot contexts only: every
       sweep call would restart the file numbering *)
    let options = solver_options C.id { req with Req.dump_graph = None } in
    let sess = Solver.Session.create ~options enc in
    { s_req = req; s_created = Mono.now (); enc; sess; inst = None; sweep = Some sw }

  (* one session call within [req]'s budget from [t0], and its run *)
  let call ~req s ~t0 ?assumptions inst =
    let r =
      Solver.Session.solve ?assumptions ~deadline:(Req.deadline_from req t0) s.sess
    in
    let { Solver.result; stats; _ } = r.Solver.Session.outcome in
    let verdict =
      match result with
      | Solver.Unsat -> Unsat
      | Solver.Timeout -> Timeout
      | Solver.Sat m -> replay inst (fun n -> m.(E.var s.enc n))
    in
    ( {
        verdict;
        time = Mono.now () -. t0;
        relations = stats.Solver.relations;
        learn_time = stats.Solver.learn_time;
        decisions = stats.Solver.decisions;
        conflicts = stats.Solver.conflicts;
        stats = Some stats;
        metrics = snap s.s_req.Req.obs;
      },
      r )

  let solve ~req s =
    match s.inst with
    | None -> wrong_mode "solve"
    | Some inst -> fst (call ~req s ~t0:s.s_created inst)

  let sweep_step ~req s ~bound =
    match s.sweep with
    | None -> wrong_mode "sweep_step"
    | Some sw ->
      let t0 = Mono.now () in
      let vnode = Bmc.sweep_violation sw ~bound in
      Obs.span s.s_req.Req.obs Obs.Encode (fun () -> E.extend s.enc);
      let sw_run, r =
        call ~req s ~t0
          ~assumptions:[| Rtlsat_constr.Types.Pos (E.var s.enc vnode) |]
          (Bmc.sweep_instance sw ~bound)
      in
      {
        sw_bound = bound;
        sw_run;
        sw_carried_clauses = r.Solver.Session.carried_clauses;
        sw_carried_relations = r.Solver.Session.carried_relations;
      }

  let cancel s = Atomic.set s.s_req.Req.cancel true
  let snapshot s = snap s.s_req.Req.obs
end

module Hdpll_e = Make_hybrid (struct let id = Hdpll end)
module Hdpll_s_e = Make_hybrid (struct let id = Hdpll_s end)
module Hdpll_sp_e = Make_hybrid (struct let id = Hdpll_sp end)
module Hdpll_p_e = Make_hybrid (struct let id = Hdpll_p end)

(* ---- the eager bit-blast baseline, over Bitblast / Cdcl ---- *)

module Bitblast_e : S = struct
  let id = Bitblast
  let name = name_of Bitblast
  let caps = caps_of Bitblast

  type mode =
    | One_shot of { inst : Bmc.instance; bb : Bb.t }
    | Sweep of { sw : Bmc.sweep; bb : Bb.t }

  type session = { s_req : Req.t; s_created : float; mode : mode }

  let create ~req inst =
    let t0 = Mono.now () in
    let obs = req.Req.obs in
    let bb =
      Obs.span obs Obs.Encode (fun () ->
          let bb = Bb.encode (Unroll.combo inst.Bmc.unrolled) in
          Bb.assume_bool bb inst.Bmc.violation true;
          bb)
    in
    { s_req = req; s_created = t0; mode = One_shot { inst; bb } }

  let session ~req ?semantics source ~prop =
    let obs = req.Req.obs in
    let sw = Bmc.sweep source ~prop ?semantics () in
    let bb =
      Obs.span obs Obs.Encode (fun () ->
          Bb.encode (Unroll.combo (Bmc.sweep_unrolled sw)))
    in
    { s_req = req; s_created = Mono.now (); mode = Sweep { sw; bb } }

  (* simplify, then record this call's work: the solver's Simp
     counters are cumulative (inprocessing adds to them too), so the
     counters and the trace event carry the delta of this call *)
  let simplify_with_obs obs ~elim ~deadline ~cancel bb =
    Obs.span obs Obs.Simplify (fun () ->
        let open Rtlsat_simplify.Simp in
        let before = empty_stats () in
        if obs.Obs.enabled then add_stats before (Bb.simp_stats bb);
        Bb.simplify ~elim ~deadline ~cancel bb;
        if obs.Obs.enabled then begin
          let st = Bb.simp_stats bb in
          let subsumed = st.subsumed - before.subsumed
          and strengthened = st.strengthened - before.strengthened
          and eliminated = st.eliminated - before.eliminated
          and probed = st.probed - before.probed
          and equivs = st.equivs - before.equivs in
          Obs.add obs "simplify.subsumed" subsumed;
          Obs.add obs "simplify.strengthened" strengthened;
          Obs.add obs "simplify.eliminated" eliminated;
          Obs.add obs "simplify.probed" probed;
          Obs.add obs "simplify.equivs" equivs;
          if Obs.tracing obs then
            Obs.event obs "simplify.pass"
              [ ("engine", Json.Str "cdcl");
                ("subsumed", Json.Int subsumed);
                ("strengthened", Json.Int strengthened);
                ("eliminated", Json.Int eliminated);
                ("probed", Json.Int probed);
                ("equivs", Json.Int equivs) ]
        end)

  let solve ~req s =
    match s.mode with
    | Sweep _ -> wrong_mode "solve"
    | One_shot { inst; bb } ->
      let t0 = s.s_created in
      let obs = s.s_req.Req.obs in
      let deadline = Req.deadline_from req t0 in
      (* one-shot solve: the violation selector was added as a unit
         clause at [create], not an assumption, and the encoding never
         grows — so full preprocessing including variable elimination
         is sound *)
      if s.s_req.Req.simplify then
        simplify_with_obs obs ~elim:true ~deadline ~cancel:s.s_req.Req.cancel
          bb;
      let verdict =
        match
          Bb.solve ~deadline ~inprocess:s.s_req.Req.inprocess
            ~cancel:s.s_req.Req.cancel bb
        with
        | Bb.Unsat -> Unsat
        | Bb.Timeout -> Timeout
        | Bb.Sat -> replay inst (Bb.node_value bb)
      in
      {
        verdict;
        time = Mono.now () -. t0;
        relations = 0;
        learn_time = 0.0;
        decisions = 0;
        conflicts = Rtlsat_sat.Cdcl.n_conflicts (Bb.solver bb);
        stats = None;
        metrics = snap obs;
      }

  let sweep_step ~req s ~bound =
    match s.mode with
    | One_shot _ -> wrong_mode "sweep_step"
    | Sweep { sw; bb } ->
      let obs = s.s_req.Req.obs in
      let sat = Bb.solver bb in
      let t0 = Mono.now () in
      let vnode = Bmc.sweep_violation sw ~bound in
      Obs.span obs Obs.Encode (fun () -> Bb.extend bb);
      (* lemmas carried into this call: conflict-learned clauses
         retained so far, as counted by the CDCL kernel *)
      let carried = Rtlsat_sat.Cdcl.n_learned sat in
      let conflicts0 = Rtlsat_sat.Cdcl.n_conflicts sat in
      (* incremental sweep: the encoding keeps growing and literals
         are assumed per bound, so variable elimination stays off —
         subsumption, probing and equivalent-literal substitution
         remain sound (assumptions and later clauses are rewritten
         through the substitution) *)
      let deadline = Req.deadline_from req t0 in
      if s.s_req.Req.simplify then
        simplify_with_obs obs ~elim:false ~deadline
          ~cancel:s.s_req.Req.cancel bb;
      let verdict =
        match
          Bb.solve ~deadline
            ~inprocess:s.s_req.Req.inprocess ~cancel:s.s_req.Req.cancel
            ~assumptions:[ Bb.bool_lit bb vnode ] bb
        with
        | Bb.Unsat -> Unsat
        | Bb.Timeout -> Timeout
        | Bb.Sat -> replay (Bmc.sweep_instance sw ~bound) (Bb.node_value bb)
      in
      let sw_run =
        {
          verdict;
          time = Mono.now () -. t0;
          relations = 0;
          learn_time = 0.0;
          decisions = 0;
          conflicts = Rtlsat_sat.Cdcl.n_conflicts sat - conflicts0;
          stats = None;
          metrics = snap obs;
        }
      in
      {
        sw_bound = bound;
        sw_run;
        sw_carried_clauses = carried;
        sw_carried_relations = 0;
      }

  let cancel s = Atomic.set s.s_req.Req.cancel true
  let snapshot s = snap s.s_req.Req.obs
end

(* ---- the lazy CDP baseline: no incremental interface, each bound is
   an honest fresh solve over the shared unroll ---- *)

module Lazy_cdp_e : S = struct
  let id = Lazy_cdp
  let name = name_of Lazy_cdp
  let caps = caps_of Lazy_cdp

  type mode =
    | One_shot of { inst : Bmc.instance; enc : E.t }
    | Sweep of { sw : Bmc.sweep }

  type session = { s_req : Req.t; s_created : float; mode : mode }

  let create ~req inst =
    let t0 = Mono.now () in
    let enc = encode_instance req.Req.obs inst in
    { s_req = req; s_created = t0; mode = One_shot { inst; enc } }

  let session ~req ?semantics source ~prop =
    let sw = Bmc.sweep source ~prop ?semantics () in
    { s_req = req; s_created = Mono.now (); mode = Sweep { sw } }

  let run ~req s ~t0 inst enc =
    let result, st =
      Lz.solve ~deadline:(Req.deadline_from req t0) ~cancel:s.s_req.Req.cancel
        enc.E.problem
    in
    {
      verdict =
        (match result with
         | Lz.Unsat -> Unsat
         | Lz.Timeout -> Timeout
         | Lz.Sat m -> replay inst (fun n -> m.(E.var enc n)));
      time = Mono.now () -. t0;
      relations = 0;
      learn_time = 0.0;
      decisions = st.Lz.theory_calls;
      conflicts = st.Lz.blocking_clauses;
      stats = None;
      metrics = snap s.s_req.Req.obs;
    }

  let solve ~req s =
    match s.mode with
    | Sweep _ -> wrong_mode "solve"
    | One_shot { inst; enc } -> run ~req s ~t0:s.s_created inst enc

  let sweep_step ~req s ~bound =
    match s.mode with
    | One_shot _ -> wrong_mode "sweep_step"
    | Sweep { sw } ->
      let t0 = Mono.now () in
      let inst = Bmc.sweep_instance sw ~bound in
      let enc = encode_instance s.s_req.Req.obs inst in
      {
        sw_bound = bound;
        sw_run = run ~req s ~t0 inst enc;
        sw_carried_clauses = 0;
        sw_carried_relations = 0;
      }

  let cancel s = Atomic.set s.s_req.Req.cancel true
  let snapshot s = snap s.s_req.Req.obs
end

let of_id : id -> (module S) = function
  | Hdpll -> (module Hdpll_e)
  | Hdpll_s -> (module Hdpll_s_e)
  | Hdpll_sp -> (module Hdpll_sp_e)
  | Hdpll_p -> (module Hdpll_p_e)
  | Bitblast -> (module Bitblast_e)
  | Lazy_cdp -> (module Lazy_cdp_e)

let all = List.map of_id all_ids
