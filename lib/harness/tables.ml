module Registry = Rtlsat_itc99.Registry
module Obs = Rtlsat_obs.Obs

type scale = [ `Scaled | `Full ]

let scale_name = function `Scaled -> "scaled" | `Full -> "full"

(* ---- Table 1 (§3.1): predicate learning analysis ---- *)

let table1_instances = function
  | `Full ->
    [
      ("b01", "1", 10); ("b01", "1", 20);
      ("b02", "1", 10); ("b02", "1", 20);
      ("b04", "1", 20);
      ("b13", "5", 10); ("b13", "1", 10);
      ("b13", "5", 20); ("b13", "1", 20);
      ("b13", "5", 30); ("b13", "1", 30);
      ("b13", "5", 50); ("b13", "1", 50);
      ("b13", "5", 100); ("b13", "1", 100);
      ("b13", "5", 200); ("b13", "1", 200);
      ("b13", "1", 300);
    ]
  | `Scaled ->
    [
      ("b01", "1", 10); ("b01", "1", 20);
      ("b02", "1", 10); ("b02", "1", 20);
      ("b04", "1", 20);
      ("b13", "5", 10); ("b13", "1", 10);
      ("b13", "5", 20); ("b13", "1", 20);
      ("b13", "5", 30); ("b13", "1", 30);
    ]

type t1_row = {
  t1_label : string;
  t1_type : Engines.verdict;
  t1_relations : int;
  t1_learn_time : float;
  t1_hdpll : Engines.run;
  t1_hdpll_p : Engines.run;
}

let default_timeout = function `Full -> 1200.0 | `Scaled -> 20.0

(* the paper's Table 1 threshold: 2500 learned relations *)
let t1_threshold = 2500

let run_table1 scale =
  let timeout = default_timeout scale in
  List.map
    (fun (circuit, prop, bound) ->
       let mk () = Registry.instance ~circuit ~prop ~bound in
       let base =
         Engines.run_instance ~req:(Req.make ~timeout ()) Engines.Hdpll (mk ())
       in
       let learned =
         Engines.run_instance
           ~req:(Req.make ~timeout ~learn_threshold:t1_threshold ())
           Engines.Hdpll_p (mk ())
       in
       {
         t1_label = Registry.instance_name ~circuit ~prop ~bound;
         t1_type = learned.Engines.verdict;
         t1_relations = learned.Engines.relations;
         t1_learn_time = learned.Engines.learn_time;
         t1_hdpll = base;
         t1_hdpll_p = learned;
       })
    (table1_instances scale)

let pp_time fmt (r : Engines.run) =
  match r.Engines.verdict with
  | Engines.Timeout -> Format.fprintf fmt "%8s" "-to-"
  | Engines.Abort _ -> Format.fprintf fmt "%8s" "-A-"
  | _ -> Format.fprintf fmt "%8.2f" r.Engines.time

let print_table1 fmt rows =
  Format.fprintf fmt
    "Table 1: Run-Time Analysis of Predicate Learning (times in seconds)@.";
  Format.fprintf fmt "%-14s %-4s %8s %10s %8s %8s@." "Ckt" "Type" "No.Rels"
    "LearnTime" "HDPLL" "HDPLL+P";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-14s %-4s %8d %10.2f %a %a@." r.t1_label
         (Engines.verdict_symbol r.t1_type)
         r.t1_relations r.t1_learn_time pp_time r.t1_hdpll pp_time r.t1_hdpll_p)
    rows

(* ---- Table 2 (§5): structural decision strategy ---- *)

let table2_instances = function
  | `Full ->
    [
      ("b01", "1", 50); ("b01", "1", 100);
      ("b02", "1", 50); ("b02", "1", 100);
      ("b04", "1", 50); ("b04", "1", 100);
      ("b13", "40", 13);
      ("b13", "1", 50); ("b13", "2", 50); ("b13", "3", 50); ("b13", "5", 50);
      ("b13", "8", 50);
      ("b13", "1", 100); ("b13", "2", 100); ("b13", "3", 100); ("b13", "5", 100);
      ("b13", "8", 100);
      ("b13", "1", 200); ("b13", "2", 200); ("b13", "3", 200); ("b13", "5", 200);
      ("b13", "8", 200);
      ("b13", "1", 300); ("b13", "2", 300); ("b13", "3", 300); ("b13", "5", 300);
      ("b13", "8", 300);
      ("b13", "1", 400); ("b13", "2", 400); ("b13", "3", 400); ("b13", "5", 400);
      ("b13", "8", 400);
    ]
  | `Scaled ->
    [
      ("b01", "1", 50); ("b01", "1", 100);
      ("b02", "1", 50); ("b02", "1", 100);
      ("b04", "1", 50);
      ("b13", "40", 13);
      ("b13", "1", 50); ("b13", "2", 50); ("b13", "3", 50); ("b13", "5", 50);
      ("b13", "8", 50);
    ]

type t2_row = {
  t2_label : string;
  t2_type : Engines.verdict;
  t2_arith : int;
  t2_bool : int;
  t2_runs : (Engines.engine * Engines.run) list;
}

(* the reference verdict: first engine that decided *)
let reference_verdict runs =
  match
    List.find_opt
      (fun (_, r) ->
         match r.Engines.verdict with
         | Engines.Sat | Engines.Unsat -> true
         | _ -> false)
      runs
  with
  | Some (_, r) -> r.Engines.verdict
  | None -> Engines.Timeout

(* one row: [mk ()] builds a fresh copy of the instance per engine run *)
let make_row ~timeout ~engines label mk =
  let arith, boolean = Engines.op_counts (mk ()) in
  let runs =
    List.map
      (fun e -> (e, Engines.run_instance ~req:(Req.make ~timeout ()) e (mk ())))
      engines
  in
  {
    t2_label = label;
    t2_type = reference_verdict runs;
    t2_arith = arith;
    t2_bool = boolean;
    t2_runs = runs;
  }

let run_row ?(timeout = 1200.0) ~engines (circuit, prop, bound) =
  make_row ~timeout ~engines
    (Registry.instance_name ~circuit ~prop ~bound)
    (fun () -> Registry.instance ~circuit ~prop ~bound)

let run_table2 scale =
  List.map
    (run_row ~timeout:(default_timeout scale) ~engines:Engines.table2_engines)
    (table2_instances scale)

let print_table2 fmt rows =
  Format.fprintf fmt
    "Table 2: Run-Time Analysis of Structural Decision Strategy (times in seconds)@.";
  Format.fprintf fmt
    "(UCLID is substituted by eager bit-blasting, ICS by a lazy CDP; see DESIGN.md)@.";
  (match rows with
   | [] -> ()
   | row :: _ ->
     Format.fprintf fmt "%-14s %-4s %8s %8s" "Test-case" "Rslt" "ArithOps" "BoolOps";
     List.iter
       (fun (e, _) -> Format.fprintf fmt " %9s" (Engines.engine_name e))
       row.t2_runs;
     Format.fprintf fmt "@.");
  List.iter
    (fun r ->
       Format.fprintf fmt "%-14s %-4s %8d %8d" r.t2_label
         (Engines.verdict_symbol r.t2_type)
         r.t2_arith r.t2_bool;
       List.iter
         (fun (_, run) ->
            match run.Engines.verdict with
            | Engines.Timeout -> Format.fprintf fmt " %9s" "-to-"
            | Engines.Abort _ -> Format.fprintf fmt " %9s" "-A-"
            | _ -> Format.fprintf fmt " %9.2f" run.Engines.time)
         r.t2_runs;
       Format.fprintf fmt "@.")
    rows

(* ---- suite extension: the circuits beyond the paper's subset ---- *)

let extension_instances =
  [
    ("b03", "1", 30); ("b03", "2", 30);
    ("b05", "1", 20); ("b05", "2", 20);
    ("b06", "1", 30); ("b06", "2", 30);
    ("b07", "1", 30); ("b07", "2", 30);
    ("b08", "1", 30); ("b08", "2", 30);
    ("b09", "1", 30); ("b09", "3", 30);
    ("b10", "1", 30); ("b10", "2", 30);
    ("b11", "1", 12); ("b11", "3", 12);
  ]

let run_extension () =
  List.map
    (run_row ~timeout:20.0
       ~engines:[ Engines.Hdpll; Engines.Hdpll_s; Engines.Hdpll_sp; Engines.Bitblast ])
    extension_instances

(* ---- wide_wrap family: wrap-around arithmetic corners over wide
   words.  One-frame BMC with Final semantics; every case is Sat with
   exactly one witness at a wrap corner, which the interval kernel can
   only reach through the overflow branch — the workload class behind
   the w61 slow-convergence pathology. ---- *)

module N = Rtlsat_rtl.Netlist
module Bmc = Rtlsat_bmc.Bmc

let wide_wrap_widths = [ 32; 48; 61 ]
let wide_wrap_kinds = [ "add"; "sub"; "mulc" ]

let wide_wrap_cases =
  List.concat_map
    (fun kind -> List.map (fun w -> (kind, w)) wide_wrap_widths)
    wide_wrap_kinds

let wide_wrap_label (kind, width) = Printf.sprintf "wide_%s_w%d" kind width

let wide_wrap_instance (kind, width) =
  let c = N.create (wide_wrap_label (kind, width)) in
  let p =
    match kind with
    | "add" ->
      (* x+1 wraps below x only at the all-ones corner *)
      let x = N.input c ~name:"x" width in
      N.le c x (N.add c x (N.const c ~width 1))
    | "sub" ->
      (* x-1 wraps above x only at zero *)
      let x = N.input c ~name:"x" width in
      N.le c (N.sub c x (N.const c ~width 1)) x
    | "mulc" ->
      (* 3x drops below x only when the product wraps.  mul_const is
         exact (the product grows two bits), so the operand lives at
         width-2 and the product wraps back to it via extract; the
         family width is the product's.  This also keeps the top case
         inside the backend's 61-bit word ceiling. *)
      let ow = width - 2 in
      let x = N.input c ~name:"x" ow in
      let z = N.mul_const c 3 x in
      N.le c x (N.extract c z ~msb:(ow - 1) ~lsb:0)
    | _ -> invalid_arg "wide_wrap_instance"
  in
  N.output c "prop" p;
  Bmc.make c ~prop:p ~bound:1 ~semantics:Bmc.Final ()

let wide_wrap_engines =
  [ Engines.Hdpll; Engines.Hdpll_s; Engines.Hdpll_sp; Engines.Hdpll_p ]

let run_wide_wrap () =
  List.map
    (fun case ->
       make_row ~timeout:20.0 ~engines:wide_wrap_engines (wide_wrap_label case)
         (fun () -> wide_wrap_instance case))
    wide_wrap_cases

(* ---- bmc_sweep family: incremental sessions vs from-scratch ----

   Each case sweeps a list of bounds for one (circuit, property)
   through a single solver session per engine — the unroll grows
   frame-incrementally and every bound is posed as an assumption
   literal — and, for comparison, re-solves each bound from scratch
   with [run_instance].  The carried-clause / carried-relation
   counters make the session reuse visible. *)

type sweep_row = {
  sr_label : string;
  sr_engine : Engines.engine;
  sr_steps : (Engines.sweep_step * Engines.run) list;
      (** per bound: the incremental step and its from-scratch twin *)
}

let bmc_sweep_cases = function
  | `Full ->
    [
      ("b01", "1", [ 10; 20; 30; 40; 50 ]);
      ("b02", "1", [ 10; 20; 30; 40; 50 ]);
      ("b04", "1", [ 10; 20; 30; 40 ]);
      ("b13", "5", [ 10; 20; 30; 40; 50 ]);
    ]
  | `Scaled ->
    [
      ("b01", "1", [ 4; 8; 12; 16 ]);
      ("b02", "1", [ 4; 8; 12; 16 ]);
      ("b13", "5", [ 4; 8; 12 ]);
    ]

let bmc_sweep_engines = [ Engines.Hdpll; Engines.Hdpll_sp; Engines.Bitblast ]

let run_bmc_sweep scale =
  let timeout = default_timeout scale in
  List.concat_map
    (fun (circuit, prop, bounds) ->
       let source, props = Registry.build circuit in
       let p = List.assoc prop props in
       List.map
         (fun e ->
            let incr =
              Engines.run_sweep ~req:(Req.make ~timeout ()) e source
                ~prop:p ~bounds
            in
            let steps =
              List.map
                (fun (step : Engines.sweep_step) ->
                   let scratch =
                     Engines.run_instance ~req:(Req.make ~timeout ()) e
                       (Registry.instance ~circuit ~prop
                          ~bound:step.Engines.sw_bound)
                   in
                   (step, scratch))
                incr
            in
            {
              sr_label = Printf.sprintf "%s_%s" circuit prop;
              sr_engine = e;
              sr_steps = steps;
            })
         bmc_sweep_engines)
    (bmc_sweep_cases scale)

let print_bmc_sweep fmt rows =
  Format.fprintf fmt
    "bmc_sweep: one solver session per (design, engine); bounds as assumptions (times in seconds)@.";
  Format.fprintf fmt "%-10s %-10s %5s %-4s %8s %8s %12s %12s@." "design"
    "engine" "bound" "rslt" "incr" "scratch" "carried-cls" "carried-rels";
  List.iter
    (fun row ->
       List.iter
         (fun ((step : Engines.sweep_step), scratch) ->
            Format.fprintf fmt "%-10s %-10s %5d %-4s %a %a %12d %12d@."
              row.sr_label
              (Engines.engine_name row.sr_engine)
              step.Engines.sw_bound
              (Engines.verdict_symbol step.Engines.sw_run.Engines.verdict)
              pp_time step.Engines.sw_run pp_time scratch
              step.Engines.sw_carried_clauses step.Engines.sw_carried_relations)
         row.sr_steps)
    rows

(* ---- simplify family: pre/inprocessing on vs off ----

   Each case solves one instance per engine twice — simplification on
   (the default) and off — each run with its own obs handle so
   [print_simplify] can show the on arm's simplify.* counters.  The
   rows show two facts: simplification never flips a verdict, and it
   actually reduces the clause databases (all-zero counters would mean
   the pipeline is wired but dead). *)

type simp_row = {
  sy_label : string;
  sy_engine : Engines.engine;
  sy_on : Engines.run;   (** simplify on (the default configuration) *)
  sy_off : Engines.run;  (** simplify off (the seed solver's behaviour) *)
}

let simplify_cases = function
  | `Full ->
    [
      ("b01", "1", 20);
      ("b02", "1", 20);
      ("b04", "1", 20);
      ("b13", "1", 30);
      ("b13", "5", 30);
    ]
  | `Scaled -> [ ("b01", "1", 10); ("b02", "1", 10); ("b13", "1", 10) ]

let simplify_engines = [ Engines.Hdpll_sp; Engines.Bitblast ]

let run_simplify scale =
  let timeout = default_timeout scale in
  List.concat_map
    (fun (circuit, prop, bound) ->
       List.map
         (fun e ->
            let mk () = Registry.instance ~circuit ~prop ~bound in
            let on =
              Engines.run_instance
                ~req:(Req.make ~timeout ~obs:(Obs.create ()) ())
                e (mk ())
            in
            let off =
              Engines.run_instance
                ~req:(Req.make ~timeout ~simplify:false ~obs:(Obs.create ()) ())
                e (mk ())
            in
            {
              sy_label = Printf.sprintf "%s_%s(%d)" circuit prop bound;
              sy_engine = e;
              sy_on = on;
              sy_off = off;
            })
         simplify_engines)
    (simplify_cases scale)

let simp_counter (r : Engines.run) name =
  match r.Engines.metrics with
  | None -> 0
  | Some s ->
    (match List.assoc_opt name s.Obs.counter_values with
     | Some n -> n
     | None -> 0)

let print_simplify fmt rows =
  Format.fprintf fmt
    "simplify: pre/inprocessing on vs off (times in seconds; counters from \
     the on arm)@.";
  Format.fprintf fmt "%-12s %-10s %-4s %-4s %8s %8s %6s %6s %6s %6s@."
    "instance" "engine" "on" "off" "t_on" "t_off" "subs" "str" "elim" "probe";
  List.iter
    (fun row ->
       Format.fprintf fmt "%-12s %-10s %-4s %-4s %a %a %6d %6d %6d %6d@."
         row.sy_label
         (Engines.engine_name row.sy_engine)
         (Engines.verdict_symbol row.sy_on.Engines.verdict)
         (Engines.verdict_symbol row.sy_off.Engines.verdict)
         pp_time row.sy_on pp_time row.sy_off
         (simp_counter row.sy_on "simplify.subsumed")
         (simp_counter row.sy_on "simplify.strengthened")
         (simp_counter row.sy_on "simplify.eliminated")
         (simp_counter row.sy_on "simplify.probed"))
    rows
