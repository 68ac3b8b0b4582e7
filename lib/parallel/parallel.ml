(* Multicore driver: portfolio racing and cube-and-conquer over
   OCaml domains.

   Cancellation is cooperative throughout — one [bool Atomic.t] per
   race, set by the first decisive finisher and polled by every engine
   at its existing step/fuel gates (Solver 64-step gate, Cdcl 256-step
   gate, Propagate 4096-event fuel gate).  Workers therefore observe a
   win within a bounded number of steps, not instantly; there is no
   asynchronous interruption anywhere, so solver state is never torn.

   Observability: each domain gets its own [Obs.t] handle tagged with
   its worker id ([Obs.set_worker], trace/8) and sharing the parent's
   trace and flight-recorder sinks, which are internally locked.
   Counters are merged into one run-wide snapshot at join
   ([Obs.merge_snapshots]). *)

module Exchange = Exchange
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Engines = Rtlsat_harness.Engines
module Req = Rtlsat_harness.Req
module Obs = Rtlsat_obs.Obs
module Mono = Rtlsat_obs.Mono
open Rtlsat_constr.Types

(* ---- the race primitive ---- *)

type 'a race_result = {
  winner : int option;
  entries : 'a option array;  (* [None] where the worker raised *)
  wall : float;
}

let race ~decisive fns =
  let n = Array.length fns in
  if n = 0 then invalid_arg "Parallel.race: no contestants";
  let cancel = Atomic.make false in
  let winner = Atomic.make (-1) in
  let entries = Array.make n None in
  let t0 = Mono.now () in
  let body i () =
    match fns.(i) ~worker:i ~cancel with
    | r ->
      (* first decisive finisher wins and cancels the rest; losers
         keep their (non-decisive) results for reporting *)
      if decisive r && Atomic.compare_and_set winner (-1) i then
        Atomic.set cancel true;
      entries.(i) <- Some r
    | exception _ -> ()
  in
  let doms = Array.init n (fun i -> Domain.spawn (body i)) in
  Array.iter Domain.join doms;
  let w = Atomic.get winner in
  {
    winner = (if w >= 0 then Some w else None);
    entries;
    wall = Mono.now () -. t0;
  }

(* ---- per-worker observability ---- *)

let worker_obs parent w =
  if not parent.Obs.enabled then Obs.disabled
  else begin
    let o =
      Obs.create ?trace:parent.Obs.trace ?recorder:parent.Obs.recorder ()
    in
    Obs.set_worker o w;
    o
  end

(* ---- engine portfolio ---- *)

let all_engines =
  Engines.[ Hdpll_sp; Hdpll; Hdpll_s; Hdpll_p; Bitblast; Lazy_cdp ]

let portfolio_lineup engine j =
  let rest = List.filter (fun e -> e <> engine) all_engines in
  List.filteri (fun i _ -> i < max 1 j) (engine :: rest)

type portfolio_result = {
  p_winner : Engines.engine option;
  p_run : Engines.run;
  p_runs : (Engines.engine * Engines.run option) list;
  p_wall : float;
  p_metrics : Obs.snapshot;
}

let decisive_run (r : Engines.run) =
  match r.Engines.verdict with
  | Engines.Sat | Engines.Unsat -> true
  | Engines.Timeout | Engines.Abort _ -> false

let synth_timeout_run wall =
  {
    Engines.verdict = Engines.Timeout;
    time = wall;
    relations = 0;
    learn_time = 0.0;
    decisions = 0;
    conflicts = 0;
    stats = None;
    metrics = None;
  }

let merged_metrics entries metric_of =
  Obs.merge_snapshots
    (Array.to_list entries
     |> List.filter_map (fun e -> Option.bind e metric_of))

let portfolio ?(req = Req.default) ~j ~engine inst =
  let lineup = portfolio_lineup engine j in
  let fns =
    Array.of_list
      (List.mapi
         (fun w eng ->
            let o = worker_obs req.Req.obs w in
            fun ~worker:_ ~cancel ->
              ( eng,
                Engines.run_instance
                  ~req:{ req with Req.obs = o; cancel }
                  eng inst ))
         lineup)
  in
  let rr = race ~decisive:(fun (_, r) -> decisive_run r) fns in
  let run_of i = Option.map snd rr.entries.(i) in
  let p_run =
    match rr.winner with
    | Some w -> (match run_of w with Some r -> r | None -> synth_timeout_run rr.wall)
    | None ->
      (* nobody decided: report the requested engine's (timeout) run *)
      (match run_of 0 with Some r -> r | None -> synth_timeout_run rr.wall)
  in
  {
    p_winner =
      Option.map (fun w -> fst (Option.get rr.entries.(w))) rr.winner;
    p_run;
    p_runs =
      List.mapi (fun i eng -> (eng, run_of i)) lineup;
    p_wall = rr.wall;
    p_metrics =
      merged_metrics rr.entries (fun (_, r) -> r.Engines.metrics);
  }

(* ---- cube-and-conquer ---- *)

(* what may cross the exchange: unit clauses over any atom (interval
   bounds included) and binary clauses over Boolean literals only —
   [Session.add_clause] restricts multi-atom clauses to pure Boolean,
   same as input problems *)
let exportable cl =
  match Array.length cl with
  | 1 -> true
  | 2 ->
    Array.for_all (function Pos _ | Neg _ -> true | Ge _ | Le _ -> false) cl
  | _ -> false

(* midpoint-bisection cubes over the chosen variables: every variable
   contributes two halves, so [2^k] cubes cover the root box exactly —
   all-refuted is a sound Unsat, any Sat is Sat *)
let cubes_of candidates target =
  let rec dims k =
    if 1 lsl k >= target || k >= List.length candidates then k
    else dims (k + 1)
  in
  let k = dims 1 in
  let chosen = List.filteri (fun i _ -> i < k) candidates in
  List.fold_left
    (fun cubes (v, lo, hi) ->
       let mid = lo + ((hi - lo) / 2) in
       List.concat_map
         (fun cube -> [ Ge (v, mid + 1) :: cube; Le (v, mid) :: cube ])
         cubes)
    [ [] ] chosen
  |> List.map Array.of_list

type cube_result = {
  c_verdict : Engines.verdict;
  c_time : float;
  c_cubes : int;       (** 0 when the probe or fallback decided alone *)
  c_refuted : int;
  c_vars : int list;   (** cube variables, best first *)
  c_exchange_pushed : int;
  c_exchange_taken : int;
  c_probe_time : float;
  c_metrics : Obs.snapshot;
}

let cube_solve ?(req = Req.default) ?(probe_budget = 2.0) ~j ~engine inst =
  (* the probe and every worker run the engine's kernel options under
     their own handle, cancel flag and exchange hook; no conflict
     graphs.  A non-hybrid engine fails here, before any work. *)
  let options ~obs ~cancel ~on_learn =
    Engines.solver_options engine
      { req with Req.obs; cancel; on_learn; dump_graph = None }
  in
  let obs = req.Req.obs in
  let probe_options = options ~obs ~cancel:req.Req.cancel ~on_learn:None in
  let j = max 1 j in
  let t0 = Mono.now () in
  let deadline = Req.deadline_from req t0 in
  let finish ?(cubes = 0) ?(refuted = 0) ?(vars = []) ?(pushed = 0)
      ?(taken = 0) ~probe_time ~metrics verdict =
    {
      c_verdict = verdict;
      c_time = Mono.now () -. t0;
      c_cubes = cubes;
      c_refuted = refuted;
      c_vars = vars;
      c_exchange_pushed = pushed;
      c_exchange_taken = taken;
      c_probe_time = probe_time;
      c_metrics = metrics;
    }
  in
  (* --- probe on the main domain: a short solve that either decides
     the instance outright or warms activities and the split heap so
     [split_candidates] nominates informed cube variables --- *)
  let enc0 = Engines.encode_instance obs inst in
  let probe_deadline = Float.min deadline (t0 +. Float.max 0.1 probe_budget) in
  let sess0 = Solver.Session.create ~options:probe_options enc0 in
  let verdict_of (r : Solver.Session.solve_result) =
    match r.Solver.Session.outcome.Solver.result with
    | Solver.Unsat -> Engines.Unsat
    | Solver.Timeout -> Engines.Timeout
    | Solver.Sat m -> Engines.replay inst (fun n -> m.(E.var enc0 n))
  in
  let probe = Solver.Session.solve ~deadline:probe_deadline sess0 in
  let probe_time = Mono.now () -. t0 in
  match verdict_of probe with
  | (Engines.Sat | Engines.Unsat | Engines.Abort _) as v ->
    finish ~probe_time ~metrics:(Obs.snapshot obs) v
  | Engines.Timeout when Mono.now () >= deadline ->
    finish ~probe_time ~metrics:(Obs.snapshot obs) Engines.Timeout
  | Engines.Timeout ->
    let candidates = Solver.Session.split_candidates ~max:8 sess0 in
    if candidates = [] then begin
      (* nothing to cube on (no splittable word interval): spend the
         remaining budget on the probe session sequentially *)
      finish ~probe_time ~metrics:(Obs.snapshot obs)
        (verdict_of (Solver.Session.solve ~deadline sess0))
    end
    else begin
      let cubes = Array.of_list (cubes_of candidates (max (2 * j) 4)) in
      let ncubes = Array.length cubes in
      let next = Atomic.make 0 in
      let refuted = Atomic.make 0 in
      let xchg : (int * clause) Exchange.t = Exchange.create 256 in
      let worker ~worker:w ~cancel =
        let o = worker_obs obs w in
        let enc = Engines.encode_instance o inst in
        let on_learn cl =
          if exportable cl then Exchange.push xchg (w, cl)
        in
        let sess =
          Solver.Session.create
            ~options:(options ~obs:o ~cancel ~on_learn:(Some on_learn))
            enc
        in
        (* [Unsat]: every cube this worker took was refuted *)
        let my = ref Engines.Unsat in
        let continue = ref true in
        while !continue && not (Atomic.get cancel) do
          let i = Atomic.fetch_and_add next 1 in
          if i >= ncubes then continue := false
          else begin
            (* import lemmas other workers shared; identical encodings
               make the atoms transfer verbatim, and learned clauses
               are valid without their producer's cube (assumptions
               appear negated in them, never resolved away) *)
            Exchange.drain xchg (fun (src, cl) ->
                if src <> w then Solver.Session.add_clause sess cl);
            let r = Solver.Session.solve ~assumptions:cubes.(i) ~deadline sess in
            match r.Solver.Session.outcome.Solver.result with
            | Solver.Unsat -> Atomic.incr refuted
            | Solver.Timeout ->
              my := Engines.Timeout;
              continue := false
            | Solver.Sat m ->
              my := Engines.replay inst (fun n -> m.(E.var enc n));
              continue := false
          end
        done;
        (!my, Obs.snapshot o)
      in
      let nworkers = min j ncubes in
      let rr =
        race
          ~decisive:(fun (v, _) -> v = Engines.Sat)
          (Array.init nworkers (fun _ -> worker))
      in
      let refuted = Atomic.get refuted in
      let metrics =
        Obs.merge_snapshots
          (Obs.snapshot obs
           :: (Array.to_list rr.entries
               |> List.filter_map (Option.map snd)))
      in
      let abort_msg =
        Array.to_list rr.entries
        |> List.find_map (function
          | Some (Engines.Abort m, _) -> Some m
          | _ -> None)
      in
      let verdict =
        match (rr.winner, abort_msg) with
        | Some _, _ -> Engines.Sat
        | None, _ when refuted = ncubes -> Engines.Unsat
        | None, Some m -> Engines.Abort m
        | None, None -> Engines.Timeout
      in
      finish ~cubes:ncubes ~refuted
        ~vars:(List.map (fun (v, _, _) -> v) candidates)
        ~pushed:(Exchange.pushed xchg) ~taken:(Exchange.taken xchg)
        ~probe_time ~metrics verdict
    end

(* ---- parallel bound sweeps ---- *)

(* Round-robin partition of the bound ladder over [j] workers, each
   with its own private sweep state and solver session.  No
   cancellation: every bound must report its own verdict, exactly as
   in the sequential sweep.  Verdicts match [-j 1]; per-bound times
   and carried-lemma counts differ (each worker's session only carries
   lemmas from its own subset of bounds). *)
let sweep ?(req = Req.default) ?semantics ~j engine source ~prop ~bounds =
  let j = max 1 (min j (List.length bounds)) in
  if j <= 1 then
    Engines.run_sweep ~req ?semantics engine source ~prop ~bounds
  else begin
    (* each bucket holds (position in the caller's list, bound) *)
    let buckets = Array.make j [] in
    List.iteri
      (fun i b -> buckets.(i mod j) <- (i, b) :: buckets.(i mod j))
      bounds;
    let buckets = Array.map List.rev buckets in
    let worker ~worker:w ~cancel:_ =
      let o = worker_obs req.Req.obs w in
      List.combine (List.map fst buckets.(w))
        (Engines.run_sweep
           ~req:{ req with Req.obs = o }
           ?semantics engine source ~prop ~bounds:(List.map snd buckets.(w)))
    in
    let rr =
      race ~decisive:(fun _ -> false) (Array.init j (fun _ -> worker))
    in
    (* restore the caller's bound order, repeated bounds included *)
    Array.to_list rr.entries
    |> List.concat_map (Option.value ~default:[])
    |> List.sort (fun (i, _) (k, _) -> compare i k)
    |> List.map snd
  end
