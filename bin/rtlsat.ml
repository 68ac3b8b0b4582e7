(* rtlsat — command-line front end.

   Subcommands:
     list               benchmark circuits and properties
     show               netlist statistics (and optionally the netlist)
     solve              decide one BMC instance with a chosen engine
     sweep              bound sweep through one incremental solver session
     serve              JSON-lines daemon over warm solver sessions
     check              BMC of a property in a textual netlist file
     prove              k-induction on a benchmark property
     export             an instance as SMT-LIB 2 / DIMACS, or the circuit as text
     sat                a DIMACS CNF file through the CDCL engine
     fuzz               differential fuzzing of all engines
     profile            replay a trace or flight dump: diagnosis, last heartbeat
     runs               list and filter the cross-run ledger
     trace-diff         first divergence between two traces of one instance

   The paper's tables are regenerated by bench/main.exe.

   Exit codes (shared across subcommands): 0 success; 1 negative
   finding (timeout/abort verdict, fuzz failures); 2 unreadable or
   invalid input. *)

open Cmdliner
module Ir = Rtlsat_rtl.Ir
module Structure = Rtlsat_rtl.Structure
module Registry = Rtlsat_itc99.Registry
module Engines = Rtlsat_harness.Engines
module Req = Rtlsat_harness.Req
module Serve = Rtlsat_harness.Serve
module Report = Rtlsat_harness.Report
module Obs = Rtlsat_obs.Obs
module Mono = Rtlsat_obs.Mono
module Trace = Rtlsat_obs.Trace
module Forensics = Rtlsat_obs.Forensics
module Recorder = Rtlsat_obs.Recorder
module Json = Rtlsat_obs.Json
module Ledger = Rtlsat_obs.Ledger
module Trace_diff = Rtlsat_obs.Trace_diff
module Fuzz = Rtlsat_fuzz.Fuzz
module Fuzz_gen = Rtlsat_fuzz.Gen
module Fuzz_case = Rtlsat_fuzz.Case
module Oracle = Rtlsat_fuzz.Oracle

let write_json path v =
  let oc = open_out path in
  Json.to_channel oc v;
  output_char oc '\n';
  close_out oc

(* Exit-code convention, shared by every subcommand that can fail:
   0 success, 1 negative finding, 2 unreadable/invalid input.  A
   command-line error is invalid input too: the evaluation at the bottom
   of this file maps cmdliner's parse and term errors to 2 instead of
   its own 124, and keeps its 125 for an uncaught exception. *)
let exit_ok = Cmd.Exit.info 0 ~doc:"on success."

let exit_invalid =
  Cmd.Exit.info 2
    ~doc:
      "on unreadable or invalid input: unknown or malformed option or \
       subcommand, unknown circuit/property, malformed file, unsupported \
       trace schema, unwritable output."

let exit_internal =
  Cmd.Exit.info Cmd.Exit.internal_error
    ~doc:"on unexpected internal errors (bugs)."

let std_exits =
  [
    exit_ok;
    Cmd.Exit.info 1
      ~doc:
        "on a negative finding: a timeout or abort verdict or fuzz \
         failures.";
    exit_invalid;
    exit_internal;
  ]

(* the commands that report no finding: list and export *)
let input_exits = [ exit_ok; exit_invalid; exit_internal ]

(* ---- the cross-run ledger (solve / sweep / sat / fuzz append;
   [rtlsat runs] reads) ---- *)

(* [Some path] = append there; [None] = --no-ledger *)
let ledger_term =
  let path =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Append this run's rtlsat.run/1 record to $(docv) instead of \
                 the default ledger (\\$RTLSAT_LEDGER, or \
                 .rtlsat/ledger.jsonl); list it with $(b,rtlsat runs)")
  in
  let off =
    Arg.(value & flag & info [ "no-ledger" ]
           ~doc:"Do not append a run record to the ledger")
  in
  Term.(
    const (fun path off ->
        if off then None
        else
          Some (match path with Some p -> p | None -> Ledger.default_path ()))
    $ path $ off)

(* bookkeeping must never fail the run: warn and continue.  The files
   the run wrote become the record's artifacts, in one fixed order. *)
let ledger_append ledger ~subcommand ~instance ~engine ~options ~verdict
    ~wall_s ~counters ?summary ?trace ?stats ?flight () =
  match ledger with
  | None -> ()
  | Some path ->
    let artifacts =
      List.filter_map
        (fun (kind, file) -> Option.map (fun f -> (kind, f)) file)
        [ ("summary", summary); ("trace", trace); ("stats", stats);
          ("flight", flight) ]
    in
    let record =
      Ledger.make ~subcommand ~argv:(Array.to_list Sys.argv) ~instance ~engine
        ~options ~verdict ~wall_s ~counters ~artifacts ()
    in
    (try Ledger.append ~path record with
     | Sys_error msg -> Format.eprintf "rtlsat: ledger: %s@." msg
     | Unix.Unix_error (e, _, _) ->
       Format.eprintf "rtlsat: ledger: %s: %s@." path (Unix.error_message e))

let engine_conv =
  Arg.enum (List.map (fun e -> (Engines.engine_name e, e)) Engines.all_engines)

(* BMC bounds (frame counts) must be at least 1.  A smaller value is
   invalid input and exits 2 here, with a message naming the rule. *)
let bound_conv =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok k when k < 1 ->
      Format.eprintf "rtlsat: invalid bound %d: must be at least 1@." k;
      exit 2
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

(* ---- shared request-context options ----

   solve / sweep / sat / fuzz used to each re-declare
   --split/--simplify/--inprocess (next to their own --trace and
   --timeout); one spec now parses the engine knobs, and [req_of_opts]
   finishes it into the single Req.t request context threaded through
   every engine entry point. *)

type engine_opts = {
  eo_split : bool;      (* structural split nominations (hybrid engines) *)
  eo_simplify : bool;   (* pre/inprocessing of the clause database *)
  eo_inprocess : int;   (* re-simplify period in conflicts; 0 = off *)
}

let engine_opts_term =
  let split =
    Arg.(value
         & vflag true
             [ ( true,
                 info [ "split" ]
                   ~doc:"Enable stall-triggered interval-split decisions \
                         (default); engines without a split heap ignore the \
                         flag" );
               ( false,
                 info [ "no-split" ]
                   ~doc:"Disable interval-split decisions; the hybrid kernel \
                         behaves exactly as before splits existed" ) ])
  in
  let simplify =
    Arg.(value
         & vflag true
             [ ( true,
                 info [ "simplify" ]
                   ~doc:"Pre/inprocess the clause database before the search \
                         (default): subsumption, self-subsuming \
                         strengthening and — for one-shot CNF only — \
                         variable elimination, failed-literal probing and \
                         equivalent-literal substitution; incremental \
                         sessions keep elimination off, so assumptions stay \
                         sound" );
               ( false,
                 info [ "no-simplify" ]
                   ~doc:"Skip pre/inprocessing; the solver behaves exactly \
                         as before the simplifier existed" ) ])
  in
  let inprocess =
    Arg.(value & opt int 0 & info [ "inprocess" ] ~docv:"CONFLICTS"
           ~doc:"Re-simplify the clause database at the first restart after \
                 every $(docv) conflicts; 0 (default) disables inprocessing")
  in
  Term.(
    const (fun eo_split eo_simplify eo_inprocess ->
        { eo_split; eo_simplify; eo_inprocess })
    $ split $ simplify $ inprocess)

(* a request Req.make rejects (a negative or NaN --timeout) exits 2 *)
let checked_req make =
  try make ()
  with Invalid_argument msg ->
    Format.eprintf "rtlsat: %s@." msg;
    exit 2

(* the one request context of the run: shared spec + per-command budget
   and telemetry *)
let req_of_opts ?obs ?dump_graph ?dump_graph_max ~timeout o =
  checked_req (fun () ->
      Req.make ~timeout ?obs ~split:o.eo_split ~simplify:o.eo_simplify
        ~inprocess:o.eo_inprocess ?dump_graph ?dump_graph_max ())

(* the --trace spec, shared shape with per-command doc *)
let trace_term ~doc =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* open the --trace file, if any; an unwritable path is invalid input *)
let open_trace =
  Option.map (fun path ->
      try Trace.to_file path
      with Sys_error msg ->
        Format.eprintf "rtlsat: cannot write trace file: %s@." msg;
        exit 2)

(* ---- instrumented runs and the flight recorder (solve / sweep / sat) ---- *)

(* [Some file] = armed, dumping to [file]; [None] = --no-flight-recorder *)
let flight_term =
  let on =
    Arg.(value
         & vflag true
             [ ( true,
                 info [ "flight-recorder-on" ]
                   ~doc:"Keep the flight recorder armed (default): a bounded \
                         in-memory ring of the last trace events, dumped for \
                         $(b,rtlsat profile) when the run times out, aborts, \
                         dies, or receives SIGUSR1" );
               ( false,
                 info [ "no-flight-recorder" ]
                   ~doc:"Disarm the flight recorder (and, with no other \
                         observability flag, run fully uninstrumented)" ) ])
  in
  let file =
    Arg.(value & opt string "rtlsat.flight.jsonl"
         & info [ "flight-recorder" ] ~docv:"FILE"
             ~doc:"Where a flight-recorder dump lands; nothing is written \
                   when the run ends normally")
  in
  Term.(const (fun on file -> if on then Some file else None) $ on $ file)

(* One instrumented run (solve / sweep / sat): [run] gets the run's
   observability handle — disabled unless a trace, stats, progress
   reports or the flight recorder ask for one.  An armed flight
   recorder dumps to the [flight_term] file on SIGUSR1 and when [run]
   raises.  Answers the result and the post-mortem: forcing it dumps
   when [negative] holds of the result and gives the file written, if
   any.  Callers force it after printing the result. *)
let instrumented ?trace ?(stats = false) ?(progress = false) ~heartbeat ~flight
    ~negative run =
  let obs =
    if stats || progress || trace <> None || flight <> None then
      Obs.create ?trace:(open_trace trace)
        ?recorder:(Option.map (fun _ -> Recorder.create ()) flight)
        ?heartbeat_every:(if heartbeat > 0.0 then Some heartbeat else None)
        ?progress_every:(if progress then Some 1.0 else None)
        ()
    else Obs.disabled
  in
  let dump () =
    match flight with
    | None -> None
    | Some path ->
      (match Obs.flight_dump obs path with
       | true ->
         Format.eprintf
           "flight recorder dumped to %s; replay with: rtlsat profile %s@."
           path path;
         Some path
       | false -> None
       | exception Sys_error msg ->
         Format.eprintf "rtlsat: cannot dump flight recorder: %s@." msg;
         None)
  in
  if flight <> None then
    (try
       Sys.set_signal Sys.sigusr1
         (Sys.Signal_handle (fun _ -> ignore (dump ())))
     with Invalid_argument _ | Sys_error _ -> ());
  let r =
    try run obs
    with e ->
      (* post-mortem for crashes, not just timeouts *)
      ignore (dump ());
      raise e
  in
  Obs.close obs;
  (r, lazy (if negative r then dump () else None))

let negative_verdict = function
  | Engines.Timeout | Engines.Abort _ -> true
  | Engines.Sat | Engines.Unsat -> false

let verdict_line = function
  | Engines.Sat -> "SATISFIABLE (witness validated)"
  | Engines.Unsat -> "UNSATISFIABLE"
  | Engines.Timeout -> "TIMEOUT"
  | Engines.Abort msg -> "ABORT: " ^ msg

(* ---- benchmark lookup (solve / sweep / prove / show / export) ---- *)

let circuit_arg =
  Arg.(required & opt (some string) None & info [ "c"; "circuit" ] ~docv:"NAME")

let prop_arg =
  Arg.(required & opt (some string) None & info [ "p"; "property" ] ~docv:"PROP")

(* an unknown circuit or property name is invalid input *)
let lookup_circuit name =
  try Registry.build name
  with Not_found ->
    Format.eprintf "unknown circuit %s@." name;
    exit 2

let lookup circuit prop =
  let c, props = lookup_circuit circuit in
  match List.assoc_opt prop props with
  | Some p -> (c, p)
  | None ->
    Format.eprintf "unknown property %s_%s@." circuit prop;
    exit 2

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun name ->
         let c, props = Registry.build name in
         let arith, boolean = Structure.op_counts c in
         Format.printf "%s: %d registers, %d arith ops, %d bool ops@." name
           (List.length (Ir.regs c)) arith boolean;
         List.iter
           (fun (p, _) -> Format.printf "  property %s_%s@." name p)
           props)
      Registry.circuits
  in
  Cmd.v
    (Cmd.info "list" ~exits:input_exits
       ~doc:"List benchmark circuits and properties")
    Term.(const run $ const ())

(* ---- show ---- *)

let show_cmd =
  let circuit =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT")
  in
  let dump = Arg.(value & flag & info [ "netlist" ] ~doc:"Dump the netlist") in
  let run circuit dump =
    let c, props = lookup_circuit circuit in
    let arith, boolean = Structure.op_counts c in
    Format.printf "circuit %s: %d nodes, %d inputs, %d registers@." c.Ir.cname
      c.Ir.ncount
      (List.length (Ir.inputs c))
      (List.length (Ir.regs c));
    Format.printf "operators: %d word-level, %d Boolean@." arith boolean;
    Format.printf "predicate roots: %d@."
      (List.length (Structure.predicate_roots c));
    Format.printf "properties: %s@."
      (String.concat ", " (List.map fst props));
    if dump then Format.printf "@.%a" Ir.pp_circuit c
  in
  Cmd.v (Cmd.info "show" ~exits:std_exits ~doc:"Show circuit statistics")
    Term.(const run $ circuit $ dump)

(* ---- solve ---- *)

let solve_cmd =
  let case_file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"CASE.rtl"
           ~doc:"A fuzz-case netlist file (test/corpus format): the circuit, \
                 the $(b,prop) output port and a $(i,# fuzz-case) directive. \
                 Replaces --circuit/--property/--bound.")
  in
  let circuit =
    Arg.(value & opt (some string) None & info [ "c"; "circuit" ] ~docv:"NAME")
  in
  let prop =
    Arg.(value & opt (some string) None & info [ "p"; "property" ] ~docv:"PROP")
  in
  let bound =
    Arg.(value & opt (some bound_conv) None & info [ "k"; "bound" ] ~docv:"FRAMES")
  in
  let engine =
    Arg.(value & opt engine_conv Engines.Hdpll_sp & info [ "e"; "engine" ])
  in
  let timeout = Arg.(value & opt float 1200.0 & info [ "timeout" ] ~docv:"SECONDS") in
  let stats_json =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the run's counters, per-phase timings, histograms and \
                 forensics (hot constraints/variables, ICP stalls) as JSON")
  in
  let trace_out =
    trace_term
      ~doc:"Write a JSON-lines event trace (decisions, conflicts, restarts, \
            learned clauses, heartbeats, ICP stalls); replay it with \
            $(b,rtlsat profile)"
  in
  let dump_graph =
    Arg.(value & opt (some string) None & info [ "dump-graph" ] ~docv:"DIR"
           ~doc:"Export the hybrid implication graph of the first conflicts \
                 as GraphViz DOT files DIR/conflict_NNNN.dot (HDPLL engines \
                 only; the directory is created if missing)")
  in
  let dump_graph_max =
    Arg.(value & opt int 10 & info [ "dump-graph-max" ] ~docv:"N"
           ~doc:"Cap on exported conflict graphs")
  in
  let progress =
    Arg.(value & flag & info [ "v"; "progress" ]
           ~doc:"Periodic one-line progress reports on stderr (decisions/s, \
                 conflicts/s, learned DB size, depth) and a phase-time summary")
  in
  let heartbeat =
    Arg.(value & opt float 1.0 & info [ "heartbeat" ] ~docv:"SECONDS"
           ~doc:"Interval between heartbeat trace events (progress totals \
                 and per-second rates; $(b,rtlsat profile) prints the \
                 last one); 0 disables them")
  in
  let run case_file circuit prop bound engine timeout stats_json trace_out
      dump_graph dump_graph_max progress opts flight heartbeat ledger =
    let req = req_of_opts ?dump_graph ~dump_graph_max ~timeout opts in
    let inst, label =
      match (case_file, circuit, prop, bound) with
      | Some file, None, None, None ->
        (match Fuzz_case.of_file file with
         | case ->
           ( Fuzz_case.instance case,
             Filename.remove_extension (Filename.basename file) )
         | exception (Sys_error msg | Failure msg) ->
           Format.eprintf "rtlsat: cannot load %s: %s@." file msg;
           exit 2)
      | Some _, _, _, _ ->
        Format.eprintf
          "rtlsat: CASE.rtl and --circuit/--property/--bound are exclusive@.";
        exit 2
      | None, Some circuit, Some prop, Some bound ->
        let c, p = lookup circuit prop in
        ( Rtlsat_bmc.Bmc.make c ~prop:p ~bound (),
          Registry.instance_name ~circuit ~prop ~bound )
      | None, _, _, _ ->
        Format.eprintf
          "rtlsat: give either CASE.rtl or all of --circuit, --property and \
           --bound@.";
        exit 2
    in
    let bound = inst.Rtlsat_bmc.Bmc.bound in
    (* fail on unwritable output paths before solving, not after *)
    (match stats_json with
     | Some path ->
       (try close_out (open_out path)
        with Sys_error msg ->
          Format.eprintf "rtlsat: cannot write stats file: %s@." msg;
          exit 2)
     | None -> ());
    (match dump_graph with
     | Some dir ->
       (try Unix.mkdir dir 0o755
        with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (e, _, _) ->
          Format.eprintf "rtlsat: cannot create %s: %s@." dir
            (Unix.error_message e);
          exit 2)
     | None -> ());
    let r, post_mortem =
      instrumented ?trace:trace_out ~stats:(stats_json <> None) ~progress
        ~heartbeat ~flight
        ~negative:(fun r -> negative_verdict r.Engines.verdict)
        (fun obs -> Engines.run_instance ~req:(Req.with_obs req obs) engine inst)
    in
    Format.printf "%s %s: %s in %.2fs@." label
      (Engines.engine_name engine)
      (verdict_line r.Engines.verdict)
      r.Engines.time;
    Format.printf "decisions=%d conflicts=%d relations=%d%s@."
      r.Engines.decisions r.Engines.conflicts r.Engines.relations
      (match r.Engines.stats with
       | Some st when st.Rtlsat_core.Solver.splits > 0 ->
         Printf.sprintf " splits=%d" st.Rtlsat_core.Solver.splits
       | _ -> "");
    if progress then
      (match r.Engines.metrics with
       | Some m ->
         Format.eprintf "phase self-times:@.";
         List.iter
           (fun (name, self, calls) ->
              if calls > 0 then
                Format.eprintf "  %-18s %8.3fs  (%d)@." name self calls)
           m.Obs.phases
       | None -> ());
    (match stats_json with
     | Some path ->
       write_json path (Report.solve_json ~instance:label ~bound engine r);
       Format.printf "stats written to %s@." path
     | None -> ());
    (match trace_out with
     | Some path -> Format.printf "trace written to %s@." path
     | None -> ());
    (match dump_graph with
     | Some dir -> Format.printf "conflict graphs written to %s@." dir
     | None -> ());
    let dumped = Lazy.force post_mortem in
    ledger_append ledger ~subcommand:"solve" ~instance:label
      ~engine:(Engines.engine_name engine)
      ~options:
        (Printf.sprintf "bound=%d,split=%b,simplify=%b,inprocess=%d" bound
           opts.eo_split opts.eo_simplify opts.eo_inprocess)
      ~verdict:(Report.verdict_string r.Engines.verdict)
      ~wall_s:r.Engines.time
      ~counters:
        ([
           ("decisions", r.Engines.decisions);
           ("conflicts", r.Engines.conflicts);
           ("relations", r.Engines.relations);
         ]
         @
         match r.Engines.stats with
         | Some st -> [ ("splits", st.Rtlsat_core.Solver.splits) ]
         | None -> [])
      ?trace:trace_out ?stats:stats_json ?flight:dumped ();
    if negative_verdict r.Engines.verdict then exit 1
  in
  Cmd.v
    (Cmd.info "solve" ~exits:std_exits
       ~doc:"Decide one BMC instance (benchmark or .rtl case file)")
    Term.(const run $ case_file $ circuit $ prop $ bound $ engine $ timeout
          $ stats_json $ trace_out $ dump_graph $ dump_graph_max $ progress
          $ engine_opts_term $ flight_term $ heartbeat $ ledger_term)

(* ---- check: external netlist files ---- *)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST") in
  let port =
    Arg.(required & opt (some string) None & info [ "p"; "property" ] ~docv:"OUTPUT"
           ~doc:"Output port holding the safety property (must be 1)")
  in
  let bound = Arg.(required & opt (some bound_conv) None & info [ "k"; "bound" ]) in
  let any = Arg.(value & flag & info [ "any" ] ~doc:"Violation anywhere within the bound") in
  let vcd_out =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE"
           ~doc:"Write the counterexample trace as VCD")
  in
  let timeout = Arg.(value & opt float 1200.0 & info [ "timeout" ]) in
  let run file port bound any vcd_out timeout =
    let req = checked_req (fun () -> Req.make ~timeout ()) in
    let circuit =
      try Rtlsat_rtl.Text.parse_file file
      with Sys_error msg | Failure msg ->
        Format.eprintf "rtlsat: cannot load %s: %s@." file msg;
        exit 2
    in
    let prop =
      match Rtlsat_rtl.Netlist.find_output circuit port with
      | p -> p
      | exception Not_found ->
        Format.eprintf "no output port %s@." port;
        exit 2
    in
    let semantics = if any then Rtlsat_bmc.Bmc.Any else Rtlsat_bmc.Bmc.Final in
    let inst = Rtlsat_bmc.Bmc.make circuit ~prop ~bound ~semantics () in
    let r = Engines.run_instance ~req Engines.Hdpll_sp inst in
    match r.Engines.verdict with
    | Engines.Unsat -> Format.printf "%s holds within %d frames (UNSAT)@." port bound
    | (Engines.Timeout | Engines.Abort _) as v ->
      Format.printf "%s@." (verdict_line v);
      exit 1
    | Engines.Sat ->
      Format.printf "%s VIOLATED within %d frames@." port bound;
      (match vcd_out with
       | Some path ->
         let traces = Rtlsat_rtl.Sim.run circuit ~inputs:r.Engines.witness in
         Rtlsat_rtl.Vcd.to_file circuit traces path;
         Format.printf "counterexample written to %s@." path
       | None ->
         List.iteri
           (fun f ins ->
              Format.printf "  cycle %2d:" f;
              List.iter
                (fun (n, v) -> Format.printf " %s=%d" (Ir.node_name n) v)
                ins;
              Format.printf "@.")
           r.Engines.witness)
  in
  Cmd.v
    (Cmd.info "check" ~exits:std_exits
       ~doc:"Bounded model checking of a textual netlist file")
    Term.(const run $ file $ port $ bound $ any $ vcd_out $ timeout)

(* ---- sweep: bound sweep through one incremental solver session ---- *)

let sweep_cmd =
  let bounds =
    Arg.(value & opt (list bound_conv) [ 10; 20; 30 ]
         & info [ "bounds" ] ~docv:"K1,K2,.."
             ~doc:"Comma-separated bounds to sweep, in order")
  in
  let engine =
    Arg.(value & opt engine_conv Engines.Hdpll_sp & info [ "e"; "engine" ])
  in
  let timeout =
    Arg.(value & opt float 1200.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-bound budget")
  in
  let scratch =
    Arg.(value & flag & info [ "compare-scratch" ]
           ~doc:"Also re-solve every bound from scratch and print both times")
  in
  let trace_out =
    trace_term
      ~doc:"Write a JSON-lines event trace, including the session \
            lifecycle events (session.create, solve.begin with carried \
            counters) and the per-bound sweep.bound / sweep.result \
            progress events; re-run $(b,rtlsat profile) on it while it \
            grows to see the bound in progress"
  in
  let heartbeat =
    Arg.(value & opt float 1.0 & info [ "heartbeat" ] ~docv:"SECONDS"
           ~doc:"Interval between heartbeat trace events (each tagged with \
                 the bound being solved); 0 disables them")
  in
  let run circuit prop bounds engine timeout scratch trace_out heartbeat
      flight opts ledger =
    let req = req_of_opts ~timeout opts in
    let source, p = lookup circuit prop in
    let bad =
      List.exists (fun (step : Engines.sweep_step) ->
          negative_verdict step.Engines.sw_run.Engines.verdict)
    in
    let steps, post_mortem =
      instrumented ?trace:trace_out ~heartbeat ~flight ~negative:bad (fun obs ->
          Engines.run_sweep ~req:(Req.with_obs req obs) engine source ~prop:p
            ~bounds)
    in
    Format.printf "%s_%s sweep, engine %s: one session, bounds as assumptions@."
      circuit prop (Engines.engine_name engine);
    Format.printf "%5s %-4s %8s%s %12s %12s@." "bound" "rslt" "incr"
      (if scratch then "  scratch" else "")
      "carried-cls" "carried-rels";
    let pp_run fmt (r : Engines.run) =
      match r.Engines.verdict with
      | Engines.Timeout -> Format.fprintf fmt "%8s" "-to-"
      | Engines.Abort _ -> Format.fprintf fmt "%8s" "-A-"
      | _ -> Format.fprintf fmt "%8.2f" r.Engines.time
    in
    let incr_total = ref 0.0 and scratch_total = ref 0.0 in
    List.iter
      (fun (step : Engines.sweep_step) ->
         incr_total := !incr_total +. step.Engines.sw_run.Engines.time;
         let scratch_cell =
           if scratch then begin
             let r =
               Engines.run_instance
                 ~req:(Req.make ~timeout ())
                 engine
                 (Registry.instance ~circuit ~prop ~bound:step.Engines.sw_bound)
             in
             scratch_total := !scratch_total +. r.Engines.time;
             Format.asprintf " %a" pp_run r
           end
           else ""
         in
         Format.printf "%5d %-4s %a%s %12d %12d@." step.Engines.sw_bound
           (Engines.verdict_symbol step.Engines.sw_run.Engines.verdict)
           pp_run step.Engines.sw_run scratch_cell
           step.Engines.sw_carried_clauses step.Engines.sw_carried_relations)
      steps;
    if scratch then
      Format.printf "total: incremental %.2fs, from-scratch %.2fs@." !incr_total
        !scratch_total
    else Format.printf "total: incremental %.2fs@." !incr_total;
    (match trace_out with
     | Some path -> Format.printf "trace written to %s@." path
     | None -> ());
    let total c =
      List.fold_left
        (fun acc (s : Engines.sweep_step) -> acc + c s.Engines.sw_run)
        0 steps
    in
    let dumped = Lazy.force post_mortem in
    ledger_append ledger ~subcommand:"sweep"
      ~instance:(Printf.sprintf "%s_%s" circuit prop)
      ~engine:(Engines.engine_name engine)
      ~options:
        (Printf.sprintf "bounds=%s,simplify=%b,inprocess=%d"
           (String.concat ";" (List.map string_of_int bounds))
           opts.eo_simplify opts.eo_inprocess)
      ~verdict:(Report.verdict_string (Engines.sweep_verdict steps))
      ~wall_s:!incr_total
      ~counters:
        [
          ("bounds", List.length steps);
          ("decisions", total (fun r -> r.Engines.decisions));
          ("conflicts", total (fun r -> r.Engines.conflicts));
        ]
      ?trace:trace_out ?flight:dumped ();
    if bad steps then exit 1
  in
  Cmd.v
    (Cmd.info "sweep" ~exits:std_exits
       ~doc:"Sweep a list of BMC bounds through one incremental solver \
             session: learned clauses, predicate relations and heuristic \
             state carry from bound to bound")
    Term.(const run $ circuit_arg $ prop_arg $ bounds $ engine $ timeout $ scratch
          $ trace_out $ heartbeat $ flight_term
          $ engine_opts_term $ ledger_term)

(* ---- serve: JSON-lines daemon over warm solver sessions ---- *)

let serve_cmd =
  let engine =
    Arg.(value & opt engine_conv Engines.Hdpll_sp
         & info [ "e"; "engine" ]
             ~doc:"Default engine for requests that do not name one")
  in
  let run engine ledger =
    let t = Serve.create ?ledger ~engine () in
    let served = Serve.run t stdin stdout in
    Format.eprintf "rtlsat serve: %d requests served@." served
  in
  Cmd.v
    (Cmd.info "serve" ~exits:std_exits
       ~doc:"JSON-lines request/response daemon (schema rtlsat.serve/1, one \
             request per stdin line, one response per stdout line) over a \
             pool of warm per-(circuit, property) solver sessions: a \
             repeated solve or sweep request reuses the session's unroll \
             prefix and carried learned clauses, and each request carries \
             its own deadline.  Operations: solve, sweep, ping, stats, \
             shutdown; see docs/OBSERVABILITY.md for the schema")
    Term.(const run $ engine $ ledger_term)

(* ---- prove: k-induction ---- *)

let prove_cmd =
  let max_k = Arg.(value & opt bound_conv 20 & info [ "max-k" ]) in
  let run circuit prop max_k =
    let c, p = lookup circuit prop in
    let module I = Rtlsat_harness.Induction in
    match I.prove ~max_k c ~prop:p with
    | I.Proved k ->
      Format.printf "%s_%s PROVED for all reachable states (inductive at k=%d)@."
        circuit prop k
    | I.Falsified k ->
      Format.printf "%s_%s FALSIFIED by a %d-cycle trace from reset@." circuit
        prop k
    | I.Unknown ->
      Format.printf "%s_%s UNKNOWN up to k=%d (not inductive)@." circuit prop
        max_k
    | I.Stopped (k, v) ->
      Format.printf "%s_%s %s at k=%d@." circuit prop (verdict_line v) k;
      exit 1
  in
  Cmd.v
    (Cmd.info "prove" ~exits:std_exits ~doc:"Unbounded proof by k-induction")
    Term.(const run $ circuit_arg $ prop_arg $ max_k)

(* ---- sat: standalone DIMACS solving ---- *)

let sat_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"CNF") in
  let timeout = Arg.(value & opt float 1200.0 & info [ "timeout" ]) in
  let stats_json =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the simplification pass counters (subsumed, \
                 strengthened, eliminated, probed, equivalences, rounds) and \
                 final clause/variable counts as JSON")
  in
  let run file timeout opts stats_json flight ledger =
    let req = req_of_opts ~timeout opts in
    let simplify = opts.eo_simplify and inprocess = opts.eo_inprocess in
    let cnf =
      match
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | text -> (
          match Rtlsat_sat.Dimacs.parse text with
          | cnf -> cnf
          | exception Failure msg ->
            Format.eprintf "rtlsat: %s: %s@." file msg;
            exit 2)
      | exception Sys_error msg ->
        Format.eprintf "rtlsat: cannot read %s: %s@." file msg;
        exit 2
    in
    let t_start = Mono.now () in
    let deadline = Req.deadline_from req t_start in
    let solver_out = ref None in
    let result, post_mortem =
      instrumented ~heartbeat:1.0 ~flight
        ~negative:(function `Timeout -> true | `Sat _ | `Unsat -> false)
        (fun obs ->
           Rtlsat_sat.Dimacs.solve_cnf ~deadline ~simplify ~inprocess
             ~solver_out ~obs cnf)
    in
    let wall = Mono.now () -. t_start in
    let verdict =
      match result with `Sat _ -> "sat" | `Unsat -> "unsat" | `Timeout -> "timeout"
    in
    Rtlsat_sat.Dimacs.print_result Format.std_formatter result;
    (match (stats_json, !solver_out) with
     | Some path, Some solver ->
       let st = Rtlsat_sat.Cdcl.simp_stats solver in
       let open Rtlsat_simplify.Simp in
       write_json path
         (Json.Obj
            [ ("schema", Json.Str "rtlsat.sat/1");
              ("file", Json.Str (Filename.basename file));
              ("result", Json.Str verdict);
              ( "simplify",
                Json.Obj
                  [ ("enabled", Json.Bool simplify);
                    ("subsumed", Json.Int st.subsumed);
                    ("strengthened", Json.Int st.strengthened);
                    ("eliminated", Json.Int st.eliminated);
                    ("probed", Json.Int st.probed);
                    ("equivs", Json.Int st.equivs);
                    ("rounds", Json.Int st.rounds) ] );
              ("vars", Json.Int (Rtlsat_sat.Cdcl.n_vars solver));
              ("clauses", Json.Int (Rtlsat_sat.Cdcl.n_clauses solver));
              ("conflicts", Json.Int (Rtlsat_sat.Cdcl.n_conflicts solver)) ]);
       Format.printf "stats written to %s@." path
     | _ -> ());
    let dumped = Lazy.force post_mortem in
    ledger_append ledger ~subcommand:"sat"
      ~instance:(Filename.basename file) ~engine:"cdcl"
      ~options:(Printf.sprintf "simplify=%b,inprocess=%d" simplify inprocess)
      ~verdict ~wall_s:wall
      ~counters:
        (match !solver_out with
         | Some solver ->
           [
             ("vars", Rtlsat_sat.Cdcl.n_vars solver);
             ("clauses", Rtlsat_sat.Cdcl.n_clauses solver);
             ("conflicts", Rtlsat_sat.Cdcl.n_conflicts solver);
           ]
         | None -> [])
      ?stats:stats_json ?flight:dumped ();
    match result with `Timeout -> exit 1 | `Sat _ | `Unsat -> ()
  in
  Cmd.v
    (Cmd.info "sat" ~exits:std_exits
       ~doc:"Solve a DIMACS CNF file with the CDCL engine")
    Term.(const run $ file $ timeout $ engine_opts_term $ stats_json
          $ flight_term $ ledger_term)

(* ---- export ---- *)

let export_cmd =
  let bound = Arg.(required & opt (some bound_conv) None & info [ "k"; "bound" ]) in
  let fmt_arg =
    Arg.(value & opt (enum [ ("smt2", `Smt2); ("dimacs", `Dimacs); ("rtl", `Rtl) ]) `Smt2
         & info [ "format" ] ~docv:"smt2|dimacs|rtl")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let run circuit prop bound fmt out =
    let c, p = lookup circuit prop in
    let inst = Rtlsat_bmc.Bmc.make c ~prop:p ~bound () in
    let combo = Rtlsat_bmc.Unroll.combo inst.Rtlsat_bmc.Bmc.unrolled in
    let text =
      match fmt with
      | `Smt2 ->
        Rtlsat_rtl.Smtlib.export ~assumes:[ (inst.Rtlsat_bmc.Bmc.violation, 1) ] combo
      | `Dimacs ->
        let bb = Rtlsat_baselines.Bitblast.encode combo in
        Rtlsat_baselines.Bitblast.assume_bool bb inst.Rtlsat_bmc.Bmc.violation true;
        Rtlsat_baselines.Bitblast.to_dimacs bb
      | `Rtl -> Rtlsat_rtl.Text.to_string c
    in
    match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "written to %s@." path
  in
  Cmd.v
    (Cmd.info "export" ~exits:input_exits
       ~doc:"Export an instance as SMT-LIB 2 / DIMACS, or the circuit as text")
    Term.(const run $ circuit_arg $ prop_arg $ bound $ fmt_arg $ out)

(* ---- fuzz: cross-engine differential fuzzing ---- *)

let fuzz_cmd =
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N") in
  let count =
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N"
           ~doc:"Instances to generate and cross-check")
  in
  let max_nodes =
    Arg.(value & opt int Fuzz_gen.default.Fuzz_gen.max_nodes
         & info [ "max-nodes" ] ~docv:"N"
             ~doc:"Operator budget per generated circuit")
  in
  let max_regs =
    Arg.(value & opt int Fuzz_gen.default.Fuzz_gen.max_regs
         & info [ "max-regs" ] ~docv:"N"
             ~doc:"Register budget per circuit (0 = combinational only)")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Stop starting new instances after this much wall time")
  in
  let timeout =
    Arg.(value & opt float 2.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-engine budget on each instance")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the campaign summary (schema rtlsat.fuzz/1), \
                 including every shrunk failing circuit")
  in
  let out_dir =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR"
           ~doc:"Write each shrunk failing case as DIR/fuzz_seed<N>.rtl, \
                 ready for test/corpus/")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"One line per instance on stderr (verdicts + certificate)")
  in
  let trace_out =
    trace_term
      ~doc:"Write a JSON-lines campaign trace (rate-limited fuzz.progress \
            events with instance/verdict/failure totals)"
  in
  let run seed count max_nodes max_regs deadline timeout json_out out_dir
      verbose trace_out opts ledger =
    let obs = Obs.create ?trace:(open_trace trace_out) () in
    let log =
      if verbose then
        Some
          (fun i _case outcome ->
             Format.eprintf "[%d] %s@." i (Oracle.describe outcome))
      else None
    in
    let cfg =
      {
        Fuzz.default with
        Fuzz.seed;
        count;
        req = req_of_opts ~timeout opts;
        obs;
        log;
        deadline = Option.value deadline ~default:infinity;
        gen = { Fuzz_gen.default with Fuzz_gen.max_nodes; max_regs };
      }
    in
    let s = Fuzz.run cfg in
    Format.printf
      "fuzz: %d instances (seed %d): %d sat, %d unsat, %d timeout, %d \
       failures in %.1fs%s@."
      s.Fuzz.instances seed s.Fuzz.sat s.Fuzz.unsat s.Fuzz.timeouts
      (List.length s.Fuzz.failures)
      s.Fuzz.wall
      (if s.Fuzz.stopped_early then " (deadline)" else "");
    List.iter
      (fun f ->
         Format.printf "FAILURE index=%d seed=%d: %s@." f.Fuzz.f_index
           f.Fuzz.f_seed
           (Oracle.describe f.Fuzz.f_outcome))
      s.Fuzz.failures;
    (match out_dir with
     | Some dir when s.Fuzz.failures <> [] ->
       (try Unix.mkdir dir 0o755
        with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
       List.iter
         (fun f ->
            let path =
              Filename.concat dir
                (Printf.sprintf "fuzz_seed%d.rtl" f.Fuzz.f_seed)
            in
            let oc = open_out path in
            output_string oc (Fuzz_case.to_string f.Fuzz.f_case);
            close_out oc;
            Format.printf "shrunk case written to %s@." path)
         s.Fuzz.failures
     | _ -> ());
    (match json_out with
     | Some path ->
       write_json path (Fuzz.summary_json cfg s);
       Format.printf "summary written to %s@." path
     | None -> ());
    Obs.close obs;
    (match trace_out with
     | Some path -> Format.printf "trace written to %s@." path
     | None -> ());
    ledger_append ledger ~subcommand:"fuzz"
      ~instance:(Printf.sprintf "seed%d" seed) ~engine:"all"
      ~options:
        (Printf.sprintf
           "count=%d,max_nodes=%d,max_regs=%d,simplify=%b,inprocess=%d" count
           max_nodes max_regs opts.eo_simplify opts.eo_inprocess)
      ~verdict:(if s.Fuzz.failures = [] then "ok" else "failures")
      ~wall_s:s.Fuzz.wall
      ~counters:
        [
          ("instances", s.Fuzz.instances);
          ("sat", s.Fuzz.sat);
          ("unsat", s.Fuzz.unsat);
          ("timeouts", s.Fuzz.timeouts);
          ("failures", List.length s.Fuzz.failures);
        ]
      ?summary:json_out ?trace:trace_out ();
    if s.Fuzz.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:std_exits
       ~doc:"Differential fuzzing: random circuits, all engines \
             cross-checked, failures shrunk")
    Term.(const run $ seed $ count $ max_nodes $ max_regs $ deadline $ timeout
          $ json_out $ out_dir $ verbose $ trace_out $ engine_opts_term
          $ ledger_term)

(* ---- profile: the trace-replay profiler ---- *)

let profile_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
           ~doc:"A JSON-lines trace written by $(b,rtlsat solve --trace)")
  in
  let run file =
    match Forensics.profile_file file with
    | p -> Forensics.print_profile Format.std_formatter p
    | exception Sys_error msg ->
      Format.eprintf "rtlsat: %s@." msg;
      exit 2
    | exception Trace.Unsupported_schema msg ->
      Format.eprintf "rtlsat: %s: %s@." file msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "profile" ~exits:std_exits
       ~doc:
         "Replay a --trace file or flight-recorder dump offline: event \
          statistics, conflict locality, phase times, ICP-stall forensics, \
          the last heartbeat's totals, rates and heap, sweep progress and a \
          diagnosis.  Re-run it on a growing trace or a SIGUSR1 dump to see \
          a live run.  Reads rtlsat.trace/7 and rtlsat.trace/8 only")
    Term.(const run $ file)

(* ---- runs: list and filter the cross-run ledger ---- *)

let runs_cmd =
  let ledger_file =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Read this ledger instead of the default \
                 (\\$RTLSAT_LEDGER, or .rtlsat/ledger.jsonl)")
  in
  let instance =
    Arg.(value & opt (some string) None & info [ "instance" ] ~docv:"NAME"
           ~doc:"Only runs of this instance")
  in
  let engine =
    Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Only runs of this engine")
  in
  let last =
    Arg.(value & opt (some int) None & info [ "last" ] ~docv:"N"
           ~doc:"Only the N most recent matching runs")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the listing as JSON (schema rtlsat.runs/1) with the \
                 full ledger records and the slow-run flag")
  in
  let run ledger_file instance engine last json =
    let path =
      match ledger_file with Some p -> p | None -> Ledger.default_path ()
    in
    let all = Ledger.load ~path in
    let rs = Ledger.filter ?instance ?engine ?last all in
    if json then begin
      (* the slow flag compares each run against the whole ledger's
         median for its (instance, engine, options) key, not just the
         filtered view *)
      let runs_json =
        List.map
          (fun (r : Ledger.record) ->
             match r.Ledger.json with
             | Json.Obj fields ->
               Json.Obj (fields @ [ ("slow", Json.Bool (Ledger.slow all r)) ])
             | j -> j)
          rs
      in
      Json.to_channel stdout
        (Json.Obj
           [
             ("schema", Json.Str Ledger.runs_schema);
             ("ledger", Json.Str path);
             ("runs", Json.Arr runs_json);
           ]);
      print_newline ()
    end
    else if rs = [] then Format.printf "no matching runs in %s@." path
    else begin
      Format.printf "%-20s %-6s %-24s %-14s %-8s %9s@." "ts" "cmd" "instance"
        "engine" "verdict" "wall";
      List.iter
        (fun (r : Ledger.record) ->
           Format.printf "%-20s %-6s %-24s %-14s %-8s %8.2fs%s@." r.Ledger.ts
             r.Ledger.subcommand r.Ledger.instance r.Ledger.engine
             r.Ledger.verdict r.Ledger.wall_s
             (if Ledger.slow all r then
                Printf.sprintf "  SLOW (median %.2fs)"
                  (Ledger.group_median all r)
              else ""))
        rs;
      Format.printf "%d of %d run%s in %s@." (List.length rs) (List.length all)
        (if List.length all = 1 then "" else "s")
        path
    end
  in
  Cmd.v
    (Cmd.info "runs" ~exits:std_exits
       ~doc:"List and filter the cross-run ledger appended by \
             solve/sweep/sat/fuzz/bench: one line per run with verdict, wall \
             time and a flag for runs slower than the ledger median for the \
             same (instance, engine, options)")
    Term.(const run $ ledger_file $ instance $ engine $ last $ json)

(* ---- trace-diff: first divergence between two traces ---- *)

let trace_diff_cmd =
  let old_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD"
           ~doc:"The reference trace (e.g. before a change)")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW"
           ~doc:"The trace to compare against it")
  in
  let run old_file new_file =
    match Trace_diff.diff ~old_file ~new_file with
    | d ->
      Trace_diff.print Format.std_formatter d;
      if Trace_diff.exit_code d <> 0 then exit 1
    | exception Sys_error msg ->
      Format.eprintf "rtlsat: %s@." msg;
      exit 2
    | exception Trace.Unsupported_schema msg ->
      Format.eprintf "rtlsat: %s@." msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "trace-diff" ~exits:std_exits
       ~doc:"Align two --trace files of the same instance, name the first \
             divergent decision/split/conflict and report per-phase time and \
             counter deltas; exits 1 when the verdicts diverge.  Reads \
             rtlsat.trace/7 and rtlsat.trace/8 only")
    Term.(const run $ old_file $ new_file)

let () =
  let doc = "RTL satisfiability with structural search and predicate learning" in
  let info = Cmd.info "rtlsat" ~version:"1.0.0" ~exits:std_exits ~doc in
  let cmd =
    Cmd.group info
      [ list_cmd; show_cmd; solve_cmd; sweep_cmd; serve_cmd; check_cmd;
        prove_cmd; export_cmd; sat_cmd;
        fuzz_cmd;
        profile_cmd;
        runs_cmd;
        trace_diff_cmd ]
  in
  exit
    (match Cmd.eval_value cmd with
     | Ok (`Ok () | `Help | `Version) -> 0
     | Error (`Parse | `Term) -> 2
     | Error `Exn -> Cmd.Exit.internal_error)
