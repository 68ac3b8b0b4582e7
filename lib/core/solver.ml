open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec
module Problem = Rtlsat_constr.Problem
module Encode = Rtlsat_constr.Encode
module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json
module Mono = Rtlsat_obs.Mono
module Heap = Rtlsat_sat.Heap
module Search = Rtlsat_sat.Search

type options = {
  structural : bool;
  predicate_learning : bool;
  learn_threshold : int option;
  deadline : float;
  restarts : bool;
  split : bool;
  simplify : bool;
  inprocess : int;
  seed_fanout : bool;
  random_seed : int option;
  collect_learned : bool;
  obs : Obs.t;
  dump_graph : string option;
  dump_graph_max : int;
  cancel : bool Atomic.t;
  on_learn : (clause -> unit) option;
}

(* the default cancel flag is shared by every options record that
   doesn't override it; it is never set, so sharing is harmless *)
let never_cancelled = Atomic.make false

let default =
  {
    structural = false;
    predicate_learning = false;
    learn_threshold = None;
    deadline = infinity;
    restarts = true;
    split = true;
    simplify = true;
    inprocess = 0;
    seed_fanout = true;
    random_seed = None;
    collect_learned = false;
    obs = Obs.disabled;
    dump_graph = None;
    dump_graph_max = 10;
    cancel = never_cancelled;
    on_learn = None;
  }

(* fixed search parameters: recursive-learning depth of predicate
   learning, box-search budget per final check, and the learned-clause
   budget beyond which restarts drop old long clauses *)
let learn_depth = 1
let max_final_nodes = 200_000
let reduce_db_budget = 20_000

let hdpll = default
let hdpll_s = { default with structural = true }
let hdpll_sp = { default with structural = true; predicate_learning = true }
let hdpll_p = { default with predicate_learning = true }

type result = Sat of int array | Unsat | Timeout

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  learned : int;
  jconflicts : int;
  final_checks : int;
  splits : int;
  relations : int;
  learn_time : float;
  solve_time : float;
}

type outcome = {
  result : result;
  stats : stats;
  learned_clauses : clause list;
}

let validate_clause prob cl =
  if Array.length cl > 1 then
    Array.iter
      (fun a ->
         match a with
         | Ge _ | Le _ ->
           if not (Problem.is_bool_var prob (atom_var a)) then
             invalid_arg
               "Solver: multi-atom input clauses must be purely Boolean"
         | Pos _ | Neg _ -> ())
      cl

let validate_input_clauses prob =
  Problem.iter_clauses (fun cl -> validate_clause prob cl) prob

(* hottest split candidate whose interval is still splittable; stale
   nominations (variables fixed since they were queued, or queued at a
   later level and since backtracked) are discarded.  The heap is
   emptied either way: co-crawling variables nominate together, and
   acting on each in turn just manufactures trivial conflicts between
   the halves — one action per nomination batch.  Clearing also
   guarantees the suspended propagation queue drains before the next
   decision. *)
let pick_split s =
  if (not s.State.split) || Heap.is_empty s.State.split_heap then None
  else begin
    let rec pop () =
      if Heap.is_empty s.State.split_heap then None
      else begin
        let v = Heap.pop s.State.split_heap s.State.activity in
        if s.State.lb.(v) < s.State.ub.(v) then Some v else pop ()
      end
    in
    let r = pop () in
    Heap.clear s.State.split_heap;
    r
  end

(* bisect [v]'s interval as a decision.  The arm keeps chasing the
   observed crawl: a lower bound creeping up means the interesting
   values are high, so take the upper half first.  Both arms strictly
   tighten a non-singleton interval, so the assertion can neither
   conflict nor no-op; the learned clause that negates the decision
   yields exactly the other half. *)
let split_decide obs s v =
  let lo = s.State.lb.(v) and hi = s.State.ub.(v) in
  let mid = lo + ((hi - lo) / 2) in
  let arm =
    if s.State.split_dir.(v) then State.canonical s (Ge (v, mid + 1))
    else State.canonical s (Le (v, mid))
  in
  s.State.n_decisions <- s.State.n_decisions + 1;
  s.State.n_splits <- s.State.n_splits + 1;
  if obs.Obs.enabled then begin
    Obs.incr obs "icp.splits";
    Obs.note_split obs ~var:v;
    Obs.decide obs Obs.Split ~lvl:(State.decision_level s + 1) ~var:v;
    if Obs.tracing obs then
      Obs.event obs "split"
        [ ("var", Json.Int v);
          ("name", Json.Str (Problem.var_name s.State.prob v));
          ("lo", Json.Int lo);
          ("hi", Json.Int hi);
          ("mid", Json.Int mid);
          ("arm", Json.Str (if s.State.split_dir.(v) then "ge" else "le"));
          ("pending", Json.Int (Heap.size s.State.split_heap)) ]
  end;
  State.new_level s;
  State.assert_atom s arm None

(* next unassigned Boolean by activity *)
let rec pick_activity s =
  if Heap.is_empty s.State.heap then None
  else begin
    let v = Heap.pop s.State.heap s.State.activity in
    if State.bool_value s v = -1 then Some v else pick_activity s
  end

(* is any Boolean still unassigned?  Free Booleans always remain in
   the decision heap (deletion is lazy and a popped free variable is
   immediately decided), so peeking it is a sound emptiness test;
   re-insert what we popped. *)
let free_bool s =
  match pick_activity s with
  | Some v ->
    Heap.insert s.State.heap s.State.activity v;
    true
  | None -> false

(* A box handed to the certificate oracle mid-suspension is not at
   propagation fixpoint: a clause falsified by queued-but-unprocessed
   bound events has not surfaced as a conflict yet, so a claimed model
   must be re-checked against the clause database before it is
   trusted.  (The word constraints themselves are enforced by the
   oracle.) *)
let model_ok s m =
  let sat_atom = function
    | Pos v -> m.(v) >= 1
    | Neg v -> m.(v) <= 0
    | Ge (v, k) -> m.(v) >= k
    | Le (v, k) -> m.(v) <= k
  in
  let ok = ref true in
  let n = Vec.length s.State.clauses in
  let i = ref 0 in
  while !ok && !i < n do
    if not (Array.exists sat_atom (Vec.get s.State.clauses !i)) then ok := false;
    incr i
  done;
  !ok

(* the randomized strategy the paper compares against in §5.1: a
   uniformly random free Boolean variable, random phase *)
let pick_random rng s =
  let n = s.State.nv in
  let start = Random.State.int rng n in
  let rec scan i tried =
    if tried >= n then None
    else begin
      let v = (start + i) mod n in
      if Problem.is_bool_var s.State.prob v && State.bool_value s v = -1 then Some v
      else scan (i + 1) (tried + 1)
    end
  in
  scan 0 0

let collected_clauses opts s =
  if not opts.collect_learned then []
  else begin
    let out = ref [] in
    for i = Vec.length s.State.clauses - 1 downto 0 do
      if not (State.is_root_clause s i) then
        out := Vec.get s.State.clauses i :: !out
    done;
    !out
  end

(* one pre/inprocessing pass over the hybrid clause database
   (subsumption by interval inclusion + self-subsuming strengthening,
   see Hsimp); runs at decision level 0 from both the pre-search hook
   and the restart-time inprocessing hook *)
let simplify_db opts s =
  let obs = opts.obs in
  Obs.span obs Obs.Simplify (fun () ->
      let before = Vec.length s.State.clauses in
      let st = Hsimp.run s in
      if obs.Obs.enabled then begin
        Obs.add obs "simplify.subsumed" st.Hsimp.subsumed;
        Obs.add obs "simplify.strengthened" st.Hsimp.strengthened;
        if Obs.tracing obs then
          Obs.event obs "simplify.pass"
            [ ("engine", Json.Str "hybrid");
              ("subsumed", Json.Int st.Hsimp.subsumed);
              ("strengthened", Json.Int st.Hsimp.strengthened);
              ("clauses_before", Json.Int before);
              ("clauses_after", Json.Int (Vec.length s.State.clauses)) ]
      end)

(* the one place an [outcome] is built, shared by the main loop and
   the early (root) exits: summary trace events and the final [done]
   line, then the kernel's counters (cumulative over a session) *)
let outcome_of opts s t0 learn_summary r =
  let obs = opts.obs in
  if Obs.tracing obs then begin
    Obs.emit_summary_events obs;
    Obs.event obs "done"
      [
        ( "result",
          Json.Str
            (match r with Sat _ -> "sat" | Unsat -> "unsat" | Timeout -> "timeout") );
        ("conflicts", Json.Int s.State.n_conflicts);
        ("decisions", Json.Int s.State.n_decisions);
      ]
  end;
  let relations, learn_time =
    match learn_summary with
    | Some (sm : Predicate_learning.summary) -> (sm.relations, sm.learn_time)
    | None -> (0, 0.0)
  in
  {
    result = r;
    stats =
      {
        decisions = s.State.n_decisions;
        conflicts = s.State.n_conflicts;
        propagations = s.State.n_propagations;
        learned = s.State.n_learned;
        jconflicts = s.State.n_jconflicts;
        final_checks = s.State.n_final_checks;
        splits = s.State.n_splits;
        relations;
        learn_time;
        solve_time = Mono.now () -. t0;
      };
    learned_clauses = collected_clauses opts s;
  }

let solve_loop ~assumptions opts s justifier learn_summary =
  let obs = opts.obs in
  let assumptions = Array.map (State.canonical s) assumptions in
  (* conflict forensics: --dump-graph exports the implication graph of
     the first [dump_graph_max] conflicts as DOT files *)
  let dumped = ref 0 in
  let maybe_dump kind conflict =
    match opts.dump_graph with
    | Some dir when !dumped < opts.dump_graph_max ->
      incr dumped;
      let path =
        Filename.concat dir (Printf.sprintf "conflict_%04d.dot" !dumped)
      in
      (try
         let oc = open_out path in
         let fmt = Format.formatter_of_out_channel oc in
         Conflict.dump_dot s ~kind conflict fmt;
         Format.pp_print_flush fmt ();
         close_out oc
       with Sys_error _ -> ())
    | _ -> ()
  in
  let mux_pref =
    match learn_summary with
    | Some (sm : Predicate_learning.summary) ->
      (* in a session the problem can grow after learning ran; score
         arrays keep their learning-time size, new variables score 0 *)
      Some
        (fun v ->
           if v < Array.length sm.Predicate_learning.pos_score then
             (sm.Predicate_learning.pos_score.(v), sm.Predicate_learning.neg_score.(v))
           else (0, 0))
    | None -> None
  in
  let rng = Option.map (fun seed -> Random.State.make [| seed |]) opts.random_seed in
  let restarts = Search.restarts ~conflicts:s.State.n_conflicts in
  let cancel = Some opts.cancel in
  let steps = ref 0 in
  let result = ref None in
  let rec handle_conflict ?(kind = "conflict") conflict =
    maybe_dump kind conflict;
    s.State.n_conflicts <- s.State.n_conflicts + 1;
    Search.conflict restarts;
    let level = State.decision_level s in
    match Obs.span obs Obs.Conflict_analysis (fun () -> Conflict.analyze s conflict) with
    | exception Conflict.Root_conflict -> result := Some Unsat
    | { Conflict.clause; btlevel } ->
      Obs.observe_learned_len obs (Array.length clause);
      Obs.observe_backjump obs (level - btlevel);
      Obs.conflict obs ~lvl:level ~bt:btlevel ~len:(Array.length clause);
      State.backtrack_to s btlevel;
      State.add_clause s clause;
      s.State.n_learned <- s.State.n_learned + 1;
      (match opts.on_learn with
       | Some f when Array.length clause <= 2 -> f clause
       | _ -> ());
      State.decay_activities s;
      (* the learned clause is asserting at the backjump level *)
      let uip = clause.(0) in
      if not (State.entailed s uip) then begin
        (* asserting cannot conflict at the backjump level (its bounds
           are a prefix of the state in which the UIP held), but guard
           anyway: a follow-up conflict re-enters the analysis *)
        try State.assert_unit s clause 0
        with State.Conflict c ->
          if State.decision_level s = 0 then result := Some Unsat
          else handle_conflict c
      end
  in
  while !result = None do
    incr steps;
    if obs.Obs.enabled && !steps land 255 = 0 then begin
      Obs.progress_tick obs ~decisions:s.State.n_decisions
        ~conflicts:s.State.n_conflicts
        ~learned:(Vec.length s.State.clauses - s.State.n_root_clauses)
        ~depth:(State.decision_level s);
      Obs.heartbeat_tick obs ~decisions:s.State.n_decisions
        ~conflicts:s.State.n_conflicts ~propagations:s.State.n_propagations
        ~splits:s.State.n_splits ~lvl:(State.decision_level s)
    end;
    if
      !steps land 63 = 0
      && Search.expired ~deadline:opts.deadline cancel
    then result := Some Timeout
    else begin
      match Propagate.run ~deadline:opts.deadline ~cancel:opts.cancel s with
      | exception Propagate.Propagation_timeout -> result := Some Timeout
      | Some conflict ->
        if State.decision_level s = 0 then result := Some Unsat
        else handle_conflict conflict
      | None ->
        if opts.restarts && Search.due restarts then begin
          let num = Search.restart restarts in
          Obs.restart obs ~num ~conflicts:s.State.n_conflicts;
          State.backtrack_to s 0;
          if Vec.length s.State.clauses - s.State.n_root_clauses > reduce_db_budget
          then begin
            State.reduce_clauses s ~keep_recent:(reduce_db_budget / 2);
            if Obs.tracing obs then
              Obs.event obs "reduce_db"
                [ ( "learned_db",
                    Json.Int (Vec.length s.State.clauses - s.State.n_root_clauses) ) ]
          end;
          (* inprocessing: re-simplify the clause database at the
             first restart after every [inprocess] conflicts — the
             solver is back at level 0 here, the precondition of the
             pass *)
          if
            Search.inprocess_due restarts ~every:opts.inprocess
              ~conflicts:s.State.n_conflicts
          then simplify_db opts s
        end
        else if State.decision_level s < Array.length assumptions then begin
          (* MiniSat-style assumption push: the next assumption becomes
             this level's decision.  An already-entailed assumption
             still opens a (dummy) level so levels 1..k stay in
             bijection with assumption indices across backjumps and
             restarts; a falsified one means unsat under the current
             assumptions (learned clauses remain globally valid either
             way — analysis resolves only through reasons, so
             assumption decisions appear negated in the clause, never
             resolved away). *)
          let a = assumptions.(State.decision_level s) in
          if State.falsified s a then result := Some Unsat
          else if State.entailed s a then State.new_level s
          else begin
            s.State.n_decisions <- s.State.n_decisions + 1;
            Obs.decide obs Obs.Assumption ~lvl:(State.decision_level s + 1)
              ~var:(atom_var a);
            State.new_level s;
            State.assert_atom s a None
          end
        end
        else begin
          match pick_split s with
          | Some v ->
            (* A shave-streak suspended propagation.  With free
               Booleans left, bisect the crawling interval so search
               progresses by halving instead of unit steps.  With the
               Boolean skeleton complete the stalled box is determined
               up to word intervals, so hand it straight to the
               certificate oracle: FME refutes an infeasible box in
               one call where bisection would still crawl, and a
               feasible box yields a model immediately.  Bisection
               remains the fallback when the oracle runs out of
               budget. *)
            if free_bool s then split_decide obs s v
            else begin
              match Final_check.run ~max_nodes:max_final_nodes s with
              | Final_check.Model m when model_ok s m -> result := Some (Sat m)
              | Final_check.Model _ | Final_check.Resource_out ->
                split_decide obs s v
              | Final_check.Conflict_atoms atoms ->
                if State.decision_level s = 0 then result := Some Unsat
                else handle_conflict ~kind:"final_check" atoms
            end
          | None ->
          if s.State.qhead < State.trail_length s then
            (* the split heap drained to stale entries while the
               propagation queue is still pending: loop back into
               Propagate to resume the fixpoint before deciding *)
            ()
          else begin
          (* Decide(): structural justification first (Algorithm 2),
             then the activity heuristic *)
          let structural_decision =
            match justifier with
            | None -> None
            | Some j ->
              (try Obs.span obs Obs.Justification (fun () -> Justify.decide ?mux_pref j s)
               with Justify.Jconflict atoms ->
                 s.State.n_jconflicts <- s.State.n_jconflicts + 1;
                 if Obs.tracing obs then
                   Obs.event obs "jconflict"
                     [ ("lvl", Json.Int (State.decision_level s)) ];
                 if State.decision_level s = 0 then begin
                   result := Some Unsat;
                   None
                 end
                 else begin
                   handle_conflict ~kind:"jconflict" atoms;
                   (* skip deciding this round *)
                   Some (Pos (-1))
                 end)
          in
          match structural_decision with
          | Some (Pos v) when v = -1 -> () (* J-conflict handled *)
          | Some a ->
            s.State.n_decisions <- s.State.n_decisions + 1;
            Obs.decide obs Obs.Structural ~lvl:(State.decision_level s + 1)
              ~var:(atom_var a);
            State.new_level s;
            State.assert_atom s a None
          | None ->
            let pick =
              match rng with
              | Some rng ->
                (match pick_random rng s with
                 | Some v -> Some v
                 | None -> pick_activity s)
              | None -> pick_activity s
            in
            (match pick with
             | Some v ->
               s.State.n_decisions <- s.State.n_decisions + 1;
               Obs.decide obs
                 (match rng with Some _ -> Obs.Random | None -> Obs.Activity)
                 ~lvl:(State.decision_level s + 1) ~var:v;
               State.new_level s;
               State.assert_atom s
                 (if s.State.phase.(v) then Pos v else Neg v)
                 None
             | None ->
               (* all Booleans assigned: certify the solution box *)
               (match Final_check.run ~max_nodes:max_final_nodes s with
                | Final_check.Model m -> result := Some (Sat m)
                | Final_check.Resource_out -> result := Some Timeout
                | Final_check.Conflict_atoms atoms ->
                  if State.decision_level s = 0 then result := Some Unsat
                  else handle_conflict ~kind:"final_check" atoms))
          end
        end
    end
  done;
  Option.get !result

(* ---- persistent solver sessions (incremental interface) ----

   One [State.t] lives across many [solve] calls: learned clauses,
   predicate relations, VSIDS activities, phase saving and split
   nominations all carry over.  Constraints are append-only
   ([add_clause]/[add_atom], or appending to the underlying problem /
   encoder directly); each call syncs the kernel via [State.grow],
   which is sound because variable numbering is append-only on both
   sides.  Per-call queries are posed as assumptions — decided on
   levels 1..k of the search and popped afterwards.  Every learned
   clause is retained: conflict analysis resolves only through reasons
   (never through decisions), so assumption decisions show up negated
   in learned clauses ("guarded") and each lemma is implied by the
   clause database and the theory alone. *)
module Session = struct
  type session = {
    opts : options;
    prob : Problem.t;
    enc : Encode.t option;
    s : State.t;
    just : Justify.t option;
        (* the circuit's structure: gate order and fanout for
           structural decisions, fanout for activity seeding; extended
           at every call *)
    mutable learn_summary : Predicate_learning.summary option;
    mutable learn_pending : bool;
    mutable validated : int;  (* problem clauses validated so far *)
    mutable seeded : int;     (* circuit nodes activity-seeded so far *)
    mutable n_solves : int;
    mutable prev_stats : stats;
    mutable total_time : float;
  }

  type solve_result = {
    outcome : outcome;
    cumulative : stats;
    carried_clauses : int;
    carried_relations : int;
    n_solves : int;
  }

  let zero_stats =
    {
      decisions = 0;
      conflicts = 0;
      propagations = 0;
      learned = 0;
      jconflicts = 0;
      final_checks = 0;
      splits = 0;
      relations = 0;
      learn_time = 0.0;
      solve_time = 0.0;
    }

  let make ?(options = default) prob enc =
    validate_input_clauses prob;
    let s = State.create prob in
    s.State.split <- options.split;
    s.State.obs <- options.obs;
    if options.obs.Obs.enabled then begin
      Obs.attach_forensics options.obs ~nvars:(Problem.n_vars prob)
        ~nconstrs:(Array.length s.State.constrs)
        ~var_name:(Problem.var_name prob)
        ~constr_desc:(fun ci ->
          Format.asprintf "%a"
            (pp_constr ~name:(Problem.var_name prob) ())
            s.State.constrs.(ci));
      Obs.incr options.obs "session.creates";
      if Obs.tracing options.obs then
        Obs.event options.obs "session.create"
          [ ("vars", Json.Int (Problem.n_vars prob));
            ("clauses", Json.Int (Problem.n_clauses prob));
            ("constrs", Json.Int (Problem.n_constrs prob)) ]
    end;
    {
      opts = options;
      prob;
      enc;
      s;
      just = Option.map Justify.create enc;
      learn_summary = None;
      learn_pending = options.predicate_learning && Option.is_some enc;
      validated = Problem.n_clauses prob;
      seeded = 0;
      n_solves = 0;
      prev_stats = zero_stats;
      total_time = 0.0;
    }

  let create ?options (enc : Encode.t) = make ?options enc.Encode.problem (Some enc)
  let of_problem ?options prob = make ?options prob None

  let add_clause t cl = Problem.add_clause t.prob cl
  let add_atom t a = Problem.add_clause t.prob [| a |]
  let problem t = t.prob
  let state t = t.s

  (* activity seeding restricted to circuit nodes added since the last
     call, so VSIDS bumps earned by the old variables are preserved *)
  let seed_new t =
    match (t.enc, t.just) with
    | Some enc, Some j when t.opts.seed_fanout ->
      let c = enc.Encode.circuit in
      let fo = Justify.fanout j in
      List.iter
        (fun n ->
           let v = enc.Encode.var_of.(n.Rtlsat_rtl.Ir.id) in
           if v >= 0 && Problem.is_bool_var t.s.State.prob v then begin
             t.s.State.activity.(v) <-
               t.s.State.activity.(v) +. float_of_int fo.(n.Rtlsat_rtl.Ir.id);
             Heap.bumped t.s.State.heap t.s.State.activity v
           end)
        (Rtlsat_rtl.Ir.nodes_since c t.seeded);
      t.seeded <- c.Rtlsat_rtl.Ir.ncount
    | _ -> ()

  let solve ?(assumptions = [||]) ?deadline t =
    let t0 = Mono.now () in
    let opts =
      match deadline with
      | Some d -> { t.opts with deadline = d }
      | None -> t.opts
    in
    let obs = opts.obs in
    State.backtrack_to t.s 0;
    let ncl = Problem.n_clauses t.prob in
    for i = t.validated to ncl - 1 do
      validate_clause t.prob (Problem.clause_at t.prob i)
    done;
    t.validated <- ncl;
    State.grow t.s;
    Option.iter Justify.extend t.just;
    seed_new t;
    let carried_clauses =
      Vec.length t.s.State.clauses - t.s.State.n_root_clauses
    in
    let carried_relations =
      match t.learn_summary with
      | Some sm -> sm.Predicate_learning.relations
      | None -> 0
    in
    t.n_solves <- t.n_solves + 1;
    if obs.Obs.enabled then begin
      Obs.incr obs "session.solves";
      if Obs.tracing obs then
        Obs.event obs "solve.begin"
          [ ("call", Json.Int t.n_solves);
            ("assumptions", Json.Int (Array.length assumptions));
            ("carried_clauses", Json.Int carried_clauses);
            ("carried_relations", Json.Int carried_relations);
            ("vars", Json.Int (Problem.n_vars t.prob)) ]
    end;
    let r =
      match Propagate.run ~full:true ~deadline:opts.deadline ~cancel:opts.cancel t.s with
      | exception Propagate.Propagation_timeout -> Timeout
      | Some _ -> Unsat
      | None ->
        if t.learn_pending then begin
          (* a suspended root propagation (pending queue + split
             nomination) would make every learning probe return
             immediately; skip learning and retry on the next call,
             letting the main loop split and finish the fixpoint *)
          let suspended = t.s.State.qhead < State.trail_length t.s in
          if not suspended then begin
            (match t.enc with
             | Some enc ->
               t.learn_summary <-
                 Some
                   (Obs.span obs Obs.Static_learn (fun () ->
                        Predicate_learning.run ?threshold:opts.learn_threshold
                          ~depth:learn_depth ~deadline:opts.deadline t.s
                          enc))
             | None -> ());
            t.learn_pending <- false
          end
        end;
        (match t.learn_summary with
         | Some sm when sm.Predicate_learning.root_unsat -> Unsat
         | _ ->
           (* per-call preprocessing, after predicate learning so the
              learned relations participate: clauses learned by
              earlier calls and grown problem clauses get
              subsumed/strengthened before the new query runs; only
              non-root clauses are touched, so session growth stays
              sound.  The pass is incremental: it tests only pairs
              that involve a clause appended or changed since its last
              fixpoint (the clean prefix, [State.n_clean]), and leaves
              exactly the database a full pass would *)
           if opts.simplify then simplify_db opts t.s;
           solve_loop ~assumptions opts t.s
             (if opts.structural then t.just else None)
             t.learn_summary)
    in
    let raw = outcome_of opts t.s t0 t.learn_summary r in
    State.backtrack_to t.s 0;
    (* kernel counters are cumulative across the session; report the
       per-call delta in [outcome] and the running totals alongside *)
    let cum = raw.stats in
    let prev = t.prev_stats in
    t.total_time <- t.total_time +. cum.solve_time;
    let per_call =
      {
        decisions = cum.decisions - prev.decisions;
        conflicts = cum.conflicts - prev.conflicts;
        propagations = cum.propagations - prev.propagations;
        learned = cum.learned - prev.learned;
        jconflicts = cum.jconflicts - prev.jconflicts;
        final_checks = cum.final_checks - prev.final_checks;
        splits = cum.splits - prev.splits;
        relations = cum.relations - prev.relations;
        learn_time = cum.learn_time -. prev.learn_time;
        solve_time = cum.solve_time;
      }
    in
    t.prev_stats <- cum;
    {
      outcome = { raw with stats = per_call };
      cumulative = { cum with solve_time = t.total_time };
      carried_clauses;
      carried_relations;
      n_solves = t.n_solves;
    }
end

(* a one-shot solve is the first call of a fresh session *)
let solve ?options enc = (Session.solve (Session.create ?options enc)).Session.outcome

let solve_problem ?options prob =
  (Session.solve (Session.of_problem ?options prob)).Session.outcome
