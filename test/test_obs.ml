(* Tests for the observability layer: JSON emission/parsing, bounded
   histograms, span timers, counters, the JSON-lines trace sink, and —
   most importantly — that enabling observability does not change what
   the solver does. *)

module Json = Rtlsat_obs.Json
module Hist = Rtlsat_obs.Hist
module Trace = Rtlsat_obs.Trace
module Obs = Rtlsat_obs.Obs
module Registry = Rtlsat_itc99.Registry
module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Engines = Rtlsat_harness.Engines
module Report = Rtlsat_harness.Report
module Forensics = Rtlsat_obs.Forensics
module Recorder = Rtlsat_obs.Recorder
module Heartbeat = Rtlsat_obs.Heartbeat
module Openmetrics = Rtlsat_obs.Openmetrics
module Env = Rtlsat_obs.Env
module Ledger = Rtlsat_obs.Ledger
module Trace_diff = Rtlsat_obs.Trace_diff
module Mono = Rtlsat_obs.Mono
module Fuzz_case = Rtlsat_fuzz.Case
module P = Rtlsat_constr.Problem
module T = Rtlsat_constr.Types
module I = Rtlsat_interval.Interval

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- JSON ---- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("t", Json.Bool true);
        ("f", Json.Bool false);
        ("i", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("s", Json.Str "a\"b\\c\n\t \xc3\xa9");
        ("a", Json.Arr [ Json.Int 1; Json.Str "two"; Json.Arr [] ]);
        ("o", Json.Obj [ ("nested", Json.Obj []) ]);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v)

let test_json_escapes () =
  check_string "control chars escaped" "\"\\u0001\\n\""
    (Json.to_string (Json.Str "\x01\n"));
  (match Json.of_string "\"\\u00e9\"" with
   | Json.Str s -> check_string "\\u00e9 is UTF-8 e-acute" "\xc3\xa9" s
   | _ -> Alcotest.fail "expected string");
  (* surrogate pair: U+1D11E (musical G clef) *)
  (match Json.of_string "\"\\ud834\\udd1e\"" with
   | Json.Str s -> check_string "surrogate pair" "\xf0\x9d\x84\x9e" s
   | _ -> Alcotest.fail "expected string")

let test_json_non_finite () =
  check_string "nan -> null" "null" (Json.to_string (Json.Float nan));
  check_string "inf -> null" "null" (Json.to_string (Json.Float infinity))

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check_bool "trailing garbage" true (bad "1 2");
  check_bool "unterminated string" true (bad "\"abc");
  check_bool "bare word" true (bad "tru");
  check_bool "missing value" true (bad "{\"a\":}");
  check_bool "trailing comma" true (bad "[1,]")

let test_json_accessors () =
  let v = Json.of_string "{\"a\": [1, 2.5], \"b\": \"x\"}" in
  check_bool "member a" true (Json.member "a" v <> None);
  check_bool "member missing" true (Json.member "z" v = None);
  (match Json.member "a" v with
   | Some (Json.Arr [ one; two ]) ->
     check_bool "int" true (Json.get_int one = Some 1);
     check_bool "int promotes" true (Json.get_float one = Some 1.0);
     check_bool "float" true (Json.get_float two = Some 2.5);
     check_bool "float is not int" true (Json.get_int two = None)
   | _ -> Alcotest.fail "expected 2-array");
  check_bool "string" true
    (Option.bind (Json.member "b" v) Json.get_string = Some "x")

(* ---- histograms ---- *)

let test_hist_buckets () =
  let h = Hist.create [| 1; 2; 4 |] in
  List.iter (Hist.observe h) [ 0; 1; 2; 3; 4; 5; 100 ];
  let s = Hist.summary h in
  check_int "n" 7 s.Hist.n;
  check_int "total" 115 s.Hist.total;
  check_int "vmin" 0 s.Hist.vmin;
  check_int "vmax" 100 s.Hist.vmax;
  Alcotest.(check (list (pair string int)))
    "bucket counts"
    [ ("<=1", 2); ("<=2", 1); ("<=4", 2); (">4", 2) ]
    s.Hist.buckets

let test_hist_empty () =
  let s = Hist.summary (Hist.create [| 8 |]) in
  check_int "n" 0 s.Hist.n;
  check_int "vmin" 0 s.Hist.vmin;
  Alcotest.(check (float 0.0)) "mean" 0.0 s.Hist.mean

let test_hist_bad_limits () =
  check_bool "non-increasing limits rejected" true
    (match Hist.create [| 2; 2 |] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ---- spans, counters, snapshots ---- *)

let test_span_self_time () =
  let t = Obs.create () in
  let spin_until dt =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < dt do () done
  in
  Obs.span t Obs.Bcp (fun () ->
      spin_until 0.01;
      Obs.span t Obs.Icp (fun () -> spin_until 0.01));
  let s = Obs.snapshot t in
  let self name =
    let _, v, _ = List.find (fun (n, _, _) -> n = name) s.Obs.phases in
    v
  in
  let calls name =
    let _, _, c = List.find (fun (n, _, _) -> n = name) s.Obs.phases in
    c
  in
  check_int "bcp entered once" 1 (calls "bcp");
  check_int "icp entered once" 1 (calls "icp");
  check_bool "icp got its own time" true (self "icp" >= 0.009);
  check_bool "bcp excludes nested icp" true (self "bcp" < 0.015);
  check_bool "phases sum within wall" true
    (List.fold_left (fun acc (_, v, _) -> acc +. v) 0.0 s.Obs.phases
     <= s.Obs.wall +. 1e-6)

let test_span_exception_safe () =
  let t = Obs.create () in
  (match
     Obs.span t Obs.Bcp (fun () ->
         Obs.span_enter t Obs.Icp;
         (* simulate the solver unwinding through a conflict without
            closing the inner span *)
         failwith "conflict")
   with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "expected the exception to propagate");
  check_bool "stack fully unwound" true (t.Obs.stack = []);
  (* the handle still works afterwards *)
  Obs.span t Obs.Fme (fun () -> ());
  let s = Obs.snapshot t in
  let calls name =
    let _, _, c = List.find (fun (n, _, _) -> n = name) s.Obs.phases in
    c
  in
  check_int "fme span after unwind" 1 (calls "fme")

let test_counters () =
  let t = Obs.create () in
  check_int "untouched counter" 0 (Obs.counter t "x");
  Obs.incr t "x";
  Obs.add t "x" 4;
  Obs.incr t "y";
  check_int "x" 5 (Obs.counter t "x");
  check_int "y" 1 (Obs.counter t "y");
  let s = Obs.snapshot t in
  Alcotest.(check (list (pair string int)))
    "sorted counters" [ ("x", 5); ("y", 1) ] s.Obs.counter_values

let test_disabled_is_inert () =
  let t = Obs.disabled in
  Obs.incr t "x";
  Obs.observe_learned_len t 3;
  Obs.span t Obs.Bcp (fun () -> ());
  Obs.event t "decide" [ ("var", Json.Int 1) ];
  let s = Obs.snapshot t in
  check_int "no counters" 0 (List.length s.Obs.counter_values);
  check_bool "no phase time" true
    (List.for_all (fun (_, v, c) -> v = 0.0 && c = 0) s.Obs.phases);
  check_int "no trace" 0 s.Obs.trace_events

let test_snapshot_json_schema () =
  let t = Obs.create () in
  Obs.span t Obs.Encode (fun () -> ());
  Obs.incr t "fme.calls";
  let j = Obs.snapshot_json (Obs.snapshot t) in
  (* must survive a round trip through text *)
  let j = Json.of_string (Json.to_string j) in
  check_bool "wall_s" true
    (Option.bind (Json.member "wall_s" j) Json.get_float <> None);
  let phases = Json.member "phases" j in
  check_bool "all nine phases present" true
    (List.for_all
       (fun ph ->
          Option.bind phases (Json.member (Obs.phase_name ph)) <> None)
       Obs.all_phases);
  check_bool "histograms" true (Json.member "histograms" j <> None);
  check_bool "counters carried" true
    (Option.bind
       (Option.bind (Json.member "counters" j) (Json.member "fme.calls"))
       Json.get_int
     = Some 1)

(* ---- trace round trip on a tiny instance ---- *)

let solve_instance ?obs ?(collect = false) ?(prop = "1") ?(bound = 10) () =
  (* b13_1(10) by default: small, UNSAT, but needs real decisions and
     conflicts *)
  let inst = Registry.instance ~circuit:"b13" ~prop ~bound in
  let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
  E.assume_bool enc inst.Bmc.violation true;
  let options =
    {
      Solver.hdpll_sp with
      Solver.collect_learned = collect;
      Solver.obs = (match obs with Some o -> o | None -> Obs.disabled);
    }
  in
  Solver.solve ~options enc

let test_trace_round_trip () =
  let path = Filename.temp_file "rtlsat_trace" ".jsonl" in
  let obs = Obs.create ~trace:(Trace.to_file path) () in
  let o = solve_instance ~obs () in
  check_bool "unsat" true (o.Solver.result = Solver.Unsat);
  Obs.close obs;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check_bool "trace non-empty" true (lines <> []);
  let evs =
    List.map
      (fun line ->
         let j = Json.of_string line in
         check_bool "has t" true
           (Option.bind (Json.member "t" j) Json.get_float <> None);
         match Option.bind (Json.member "ev" j) Json.get_string with
         | Some ev -> ev
         | None -> Alcotest.fail "event without \"ev\"")
      lines
  in
  check_bool "saw decisions" true (List.mem "decide" evs);
  check_bool "saw conflicts" true (List.mem "conflict" evs);
  check_bool "saw learned clauses" true (List.mem "learn" evs);
  check_string "last event is done" "done" (List.nth evs (List.length evs - 1));
  check_int "sink counted every line" (List.length lines)
    (Obs.snapshot obs).Obs.trace_events;
  Sys.remove path

(* ---- determinism: observability must not change the solve ---- *)

(* against Obs.disabled: a trace-file handle, and the recorder-armed
   handle with heartbeats that the CLI attaches by default — the
   instrumented propagation loop must make the same search.  [pin]
   checks the armed handle right after its solve. *)
let test_observation_does_not_change_solve () =
  let same_search ?(pin = ignore) ~prop ~bound () =
    let plain = solve_instance ~collect:true ~prop ~bound () in
    let path = Filename.temp_file "rtlsat_trace" ".jsonl" in
    let traced = Obs.create ~trace:(Trace.to_file path) () in
    let armed () =
      Obs.create ~recorder:(Recorder.create ()) ~heartbeat_every:1.0 ()
    in
    List.iter
      (fun (handle, make, check) ->
         let obs = make () in
         let observed = solve_instance ~obs ~collect:true ~prop ~bound () in
         let what m = Printf.sprintf "b13_%s(%d) %s: same %s" prop bound handle m in
         check_bool (what "result") true (plain.Solver.result = observed.Solver.result);
         check_int (what "decisions") plain.Solver.stats.Solver.decisions
           observed.Solver.stats.Solver.decisions;
         check_int (what "conflicts") plain.Solver.stats.Solver.conflicts
           observed.Solver.stats.Solver.conflicts;
         check_int (what "propagations") plain.Solver.stats.Solver.propagations
           observed.Solver.stats.Solver.propagations;
         check_bool (what "learned clauses, same order") true
           (plain.Solver.learned_clauses = observed.Solver.learned_clauses);
         check obs)
      [ ("traced", (fun () -> traced), ignore); ("flight recorder", armed, pin) ];
    Obs.close traced;
    Sys.remove path
  in
  (* what sampling the BCP/ICP split and the per-constraint time must
     not move: the exact counts the unsampled timers gave *)
  let pin obs =
    let sn = Obs.snapshot obs in
    let phase name =
      match List.find_opt (fun (n, _, _) -> n = name) sn.Obs.phases with
      | Some (_, self, calls) -> (self, calls)
      | None -> Alcotest.failf "no %s phase" name
    in
    let bcp_self, bcp_calls = phase "bcp" and icp_self, icp_calls = phase "icp" in
    check_int "bcp calls" 214400 bcp_calls;
    check_int "icp calls" 214192 icp_calls;
    check_bool
      (Printf.sprintf "bcp + icp self (%.3fs + %.3fs) within the wall (%.3fs)"
         bcp_self icp_self sn.Obs.wall)
      true
      (bcp_self +. icp_self <= sn.Obs.wall);
    let all =
      match Obs.forensics obs with
      | Some f -> Forensics.top_constraints f ~k:max_int
      | None -> Alcotest.fail "no forensics attached"
    in
    let total g = List.fold_left (fun acc h -> acc + g h) 0 all in
    check_int "woken constraints" 2800 (List.length all);
    check_int "total wakeups" 454388 (total (fun h -> h.Forensics.hc_wakeups));
    check_int "total narrows" 81024 (total (fun h -> h.Forensics.hc_narrows));
    check_int "total shaved" 482305 (total (fun h -> h.Forensics.hc_shaved));
    (* the five most-narrowing constraints: id, wakeups, narrows, shaved *)
    let by_narrows =
      List.sort
        (fun a b ->
           compare
             (b.Forensics.hc_narrows, b.Forensics.hc_shaved, a.Forensics.hc_id)
             (a.Forensics.hc_narrows, a.Forensics.hc_shaved, b.Forensics.hc_id))
        all
    in
    List.iteri
      (fun i (id, wakeups, narrows, shaved) ->
         let h = List.nth by_narrows i in
         let what m = Printf.sprintf "hot constraint %d: %s" i m in
         check_int (what "id") id h.Forensics.hc_id;
         check_int (what "wakeups") wakeups h.Forensics.hc_wakeups;
         check_int (what "narrows") narrows h.Forensics.hc_narrows;
         check_int (what "shaved") shaved h.Forensics.hc_shaved)
      [ (1420, 732, 317, 1717); (1308, 733, 316, 1720); (1532, 695, 303, 1621);
        (1364, 648, 300, 1617); (972, 689, 297, 1544) ]
  in
  same_search ~prop:"1" ~bound:10 ();
  (* a b13-class search: about a thousand conflicts and 2*10^5
     propagations through the instrumented loop *)
  same_search ~pin ~prop:"2" ~bound:50 ()

(* ---- forensics: stall detection unit tests ---- *)

let test_stall_detection () =
  let f = Forensics.create ~nvars:4 ~nconstrs:2 in
  let wide = Forensics.stall_min_width + 1 in
  ignore (Forensics.constr_enter f 1);
  (* stall_streak - 1 tiny narrowings: no report yet *)
  for _ = 1 to Forensics.stall_streak - 1 do
    match Forensics.note_narrow f ~var:0 ~shaved:1 ~width:wide with
    | Some _ -> Alcotest.fail "stall reported before the streak threshold"
    | None -> ()
  done;
  (match Forensics.note_narrow f ~var:0 ~shaved:1 ~width:wide with
   | Some st ->
     check_int "stalled var" 0 st.Forensics.st_var;
     check_int "driving constraint" 1 st.Forensics.st_constr;
     check_int "streak" Forensics.stall_streak st.Forensics.st_streak;
     check_int "shaved over streak" Forensics.stall_streak
       st.Forensics.st_shaved
   | None -> Alcotest.fail "no stall at the streak threshold");
  (* the next report only fires at 16x the threshold, not immediately *)
  (match Forensics.note_narrow f ~var:0 ~shaved:1 ~width:wide with
   | Some _ -> Alcotest.fail "re-reported without backoff"
   | None -> ());
  Forensics.constr_exit f;
  check_int "reports so far" 1 (Forensics.stalls f)

let test_stall_needs_wide_domain_and_tiny_shave () =
  let f = Forensics.create ~nvars:2 ~nconstrs:1 in
  (* narrow domain: never a stall, no matter how long the streak *)
  for _ = 1 to 4 * Forensics.stall_streak do
    match Forensics.note_narrow f ~var:0 ~shaved:1 ~width:1000 with
    | Some _ -> Alcotest.fail "stall on a narrow domain"
    | None -> ()
  done;
  (* a big shave resets the streak *)
  let wide = Forensics.stall_min_width + 1 in
  for _ = 1 to Forensics.stall_streak - 1 do
    ignore (Forensics.note_narrow f ~var:1 ~shaved:1 ~width:wide)
  done;
  ignore
    (Forensics.note_narrow f ~var:1
       ~shaved:(Forensics.stall_max_shave + 1)
       ~width:wide);
  (match Forensics.note_narrow f ~var:1 ~shaved:1 ~width:wide with
   | Some _ -> Alcotest.fail "streak survived a big shave"
   | None -> ());
  check_int "no reports" 0 (Forensics.stalls f)

let test_forensics_attribution () =
  let p = Forensics.sample_period in
  check_int "per-constraint time sampling period" 64 p;
  let f = Forensics.create ~nvars:3 ~nconstrs:3 in
  Forensics.set_names f
    ~var_name:(Printf.sprintf "v%d")
    ~constr_desc:(Printf.sprintf "c%d");
  (* the propagation loop's protocol with injected clock stamps: every
     sampled wakeup lasts 1 ms *)
  let clock = ref 1.0 in
  let wake ci body =
    if Forensics.constr_enter f ci then begin
      let enter = !clock in
      body ();
      clock := !clock +. 0.001;
      Forensics.constr_exit_sampled f ~enter ~exit:!clock
    end
    else begin
      body ();
      Forensics.constr_exit f
    end
  in
  (* c0: 3·64 wakeups, each narrowing v1 by 5 and v2 by 3 *)
  for _ = 1 to 3 * p do
    wake 0 (fun () ->
        ignore (Forensics.note_narrow f ~var:1 ~shaved:5 ~width:100);
        ignore (Forensics.note_narrow f ~var:2 ~shaved:3 ~width:50))
  done;
  (* a narrowing between wakeups (clause propagation) is charged to no
     constraint *)
  ignore (Forensics.note_narrow f ~var:2 ~shaved:1 ~width:49);
  (* c1: 64 wakeups, the first narrowing v1 by 2; c2 is never woken *)
  for i = 1 to p do
    wake 1 (fun () ->
        if i = 1 then ignore (Forensics.note_narrow f ~var:1 ~shaved:2 ~width:98))
  done;
  let check_ms what ms t =
    Alcotest.(check (float 1e-9)) what (float_of_int ms /. 1000.0) t
  in
  (match Forensics.top_constraints f ~k:10 with
   | [ a; b ] ->
     check_string "c0 first (most time)" "c0" a.Forensics.hc_desc;
     check_int "c0 wakeups" (3 * p) a.Forensics.hc_wakeups;
     check_int "c0 narrows" (6 * p) a.Forensics.hc_narrows;
     check_int "c0 shaved" (24 * p) a.Forensics.hc_shaved;
     check_ms "c0 time: 3x64 wakeups of 1 ms" (3 * p) a.Forensics.hc_time;
     check_int "c1 id" 1 b.Forensics.hc_id;
     check_int "c1 wakeups" p b.Forensics.hc_wakeups;
     check_int "c1 narrows" 1 b.Forensics.hc_narrows;
     check_int "c1 shaved" 2 b.Forensics.hc_shaved;
     check_ms "c1 time: 64 wakeups of 1 ms" p b.Forensics.hc_time
   | l -> Alcotest.failf "expected 2 hot constraints, got %d" (List.length l));
  (* c2 never woke: no wakeup, narrowing or time, so it is not listed *)
  check_bool "never-woken c2 reads 0" false
    (List.exists
       (fun h -> h.Forensics.hc_id = 2)
       (Forensics.top_constraints f ~k:max_int));
  (match Forensics.top_vars f ~k:1 with
   | [ v ] ->
     check_int "hottest var" 1 v.Forensics.hv_id;
     check_int "its narrows" ((3 * p) + 1) v.Forensics.hv_narrows;
     check_int "its shaved" ((15 * p) + 2) v.Forensics.hv_shaved
   | l -> Alcotest.failf "expected 1 hot var, got %d" (List.length l))

(* attribution totals are pure functions of the search, so two
   instrumented runs of the same instance agree exactly (times aside) *)
let test_attribution_stable_across_runs () =
  let run () =
    let obs = Obs.create () in
    let o = solve_instance ~obs () in
    check_bool "unsat" true (o.Solver.result = Solver.Unsat);
    let f =
      match Obs.forensics obs with
      | Some f -> f
      | None -> Alcotest.fail "forensics not attached"
    in
    (* the complete per-constraint / per-variable tallies, normalized
       by id: the top-K view orders by wall time, which is noisy *)
    let by_id_c =
      List.sort compare
        (List.map
           (fun (h : Forensics.hot_constr) ->
              (h.Forensics.hc_id, h.Forensics.hc_wakeups,
               h.Forensics.hc_narrows, h.Forensics.hc_shaved))
           (Forensics.top_constraints f ~k:max_int))
    in
    let by_id_v =
      List.sort compare
        (List.map
           (fun (h : Forensics.hot_var) ->
              (h.Forensics.hv_id, h.Forensics.hv_narrows, h.Forensics.hv_shaved))
           (Forensics.top_vars f ~k:max_int))
    in
    (by_id_c, by_id_v, (Obs.snapshot obs).Obs.stalls)
  in
  let c1, v1, s1 = run () in
  let c2, v2, s2 = run () in
  check_bool "hot constraints non-empty" true (c1 <> []);
  check_bool "same hot constraints" true (c1 = c2);
  check_bool "same hot vars" true (v1 = v2);
  check_int "same stalls" s1 s2

(* ---- forensics end-to-end: the w61 wrap-around pathology ---- *)

let corpus_file name =
  if Sys.file_exists (Filename.concat "corpus" name) then
    Filename.concat "corpus" name
  else
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "corpus")
      name

(* with splits disabled the seed kernel's pathology is preserved: the
   run times out in an ICP crawl and the forensics pipeline must still
   diagnose it *)
let test_w61_stall_and_profile () =
  let case = Fuzz_case.of_file (corpus_file "w61_wrap_corner.rtl") in
  let inst = Fuzz_case.instance case in
  let path = Filename.temp_file "rtlsat_w61" ".jsonl" in
  let obs = Obs.create ~trace:(Trace.to_file path) () in
  let r =
    Engines.run_instance
      ~req:(Rtlsat_harness.Req.make ~timeout:1.0 ~obs ~split:false ())
      Engines.Hdpll inst
  in
  Obs.close obs;
  check_bool "times out" true (r.Engines.verdict = Engines.Timeout);
  (match r.Engines.metrics with
   | Some m ->
     check_bool "stalls counted" true (m.Obs.stalls > 0);
     check_bool "icp.stalls counter in snapshot" true
       (List.assoc_opt "icp.stalls" m.Obs.counter_values = Some m.Obs.stalls)
   | None -> Alcotest.fail "metrics missing");
  let p = Forensics.profile_file path in
  Sys.remove path;
  check_bool "v2 header recognized" true (p.Forensics.pf_schema <> None);
  check_bool "saw icp_stall events" true
    (List.assoc_opt "icp_stall" p.Forensics.pf_events <> None);
  (match p.Forensics.pf_stalls with
   | st :: _ ->
     check_bool "stalled variable named" true (st.Forensics.si_name <> "");
     check_bool "huge domain" true
       (st.Forensics.si_last_width >= Forensics.stall_min_width)
   | [] -> Alcotest.fail "profiler found no stalls");
  (match p.Forensics.pf_diagnosis with
   | first :: _ ->
     check_bool "slow ICP convergence is the dominant diagnosis" true
       (let needle = "slow ICP convergence" in
        let len = String.length needle in
        let rec contains i =
          i + len <= String.length first
          && (String.sub first i len = needle || contains (i + 1))
        in
        contains 0)
   | [] -> Alcotest.fail "empty diagnosis")

(* hard regression for the cure: with splits enabled (the default)
   every HDPLL configuration decides the same instance Sat well within
   the deadline.  [run_instance] only reports Sat after the witness
   replays through the simulator, so the verdict check covers the
   certificate too. *)
let test_w61_split_cures_all_configs () =
  let case = Fuzz_case.of_file (corpus_file "w61_wrap_corner.rtl") in
  let inst = Fuzz_case.instance case in
  List.iter
    (fun engine ->
       let r =
         Engines.run_instance
           ~req:(Rtlsat_harness.Req.make ~timeout:10.0 ())
           engine inst
       in
       check_string
         (Engines.engine_name engine ^ " sat with validated witness")
         "S"
         (Engines.verdict_symbol r.Engines.verdict);
       check_bool "well under the deadline" true (r.Engines.time < 5.0);
       match r.Engines.stats with
       | Some st ->
         (* the cure routes the stalled box through the certificate
            oracle rather than crawling to a timeout *)
         check_bool "final check ran" true (st.Solver.final_checks > 0)
       | None -> Alcotest.fail "stats missing")
    [ Engines.Hdpll; Engines.Hdpll_s; Engines.Hdpll_sp; Engines.Hdpll_p ]

(* a root-level ICP crawl with a free Boolean in the problem: the
   suspension heuristic must take interval-split decisions (the
   certificate oracle needs a complete Boolean skeleton), the solver
   must learn over the split literals and still answer Unsat *)
let crawl_problem () =
  let p = P.create () in
  let u = P.new_bool p ~name:"u" () in
  ignore u;
  let x = P.new_word p ~name:"x" (I.make 0 65535) in
  let y = P.new_word p ~name:"y" (I.make 0 65535) in
  (* y = x + 1 and y <= x - 1: infeasible, but ICP refutes it one unit
     per sweep from both ends *)
  P.add_constr p (T.Lin_eq (T.lin_of_terms [ (1, x); (-1, y) ] 1));
  P.add_constr p (T.Lin_le (T.lin_of_terms [ (1, y); (-1, x) ] 1));
  p

let test_split_decisions_unit () =
  let path = Filename.temp_file "rtlsat_split" ".jsonl" in
  let obs = Obs.create ~trace:(Trace.to_file path) () in
  let options = { Solver.hdpll with Solver.obs } in
  let o = Solver.solve_problem ~options (crawl_problem ()) in
  Obs.close obs;
  check_bool "unsat" true (o.Solver.result = Solver.Unsat);
  check_bool "splits taken" true (o.Solver.stats.Solver.splits > 0);
  let m = Obs.snapshot obs in
  check_int "icp.splits counter matches the stat"
    o.Solver.stats.Solver.splits
    (Obs.counter obs "icp.splits");
  check_int "forensics splits match" o.Solver.stats.Solver.splits m.Obs.splits;
  let p = Forensics.profile_file path in
  Sys.remove path;
  check_bool "profiler saw split events" true
    (p.Forensics.pf_splits = o.Solver.stats.Solver.splits);
  check_bool "split/stall interplay diagnosed" true
    (List.exists
       (fun line ->
          let needle = "interval splitting engaged" in
          let len = String.length needle in
          let rec contains i =
            i + len <= String.length line
            && (String.sub line i len = needle || contains (i + 1))
          in
          contains 0)
       p.Forensics.pf_diagnosis)

(* the streak bookkeeping lives outside the observability arm, so an
   enabled handle must not change which splits are taken; and with
   splits off the kernel still refutes the crawl (by crawling) *)
let test_split_determinism_and_off () =
  let on_plain =
    Solver.solve_problem ~options:Solver.hdpll (crawl_problem ())
  in
  let obs = Obs.create () in
  let on_observed =
    Solver.solve_problem
      ~options:{ Solver.hdpll with Solver.obs }
      (crawl_problem ())
  in
  let off =
    Solver.solve_problem
      ~options:{ Solver.hdpll with Solver.split = false }
      (crawl_problem ())
  in
  check_bool "unsat (split on)" true (on_plain.Solver.result = Solver.Unsat);
  check_bool "unsat (split off)" true (off.Solver.result = Solver.Unsat);
  check_int "same decisions under observation"
    on_plain.Solver.stats.Solver.decisions
    on_observed.Solver.stats.Solver.decisions;
  check_int "same conflicts under observation"
    on_plain.Solver.stats.Solver.conflicts
    on_observed.Solver.stats.Solver.conflicts;
  check_int "same splits under observation"
    on_plain.Solver.stats.Solver.splits
    on_observed.Solver.stats.Solver.splits;
  check_int "no splits when disabled" 0 off.Solver.stats.Solver.splits

let test_profile_v1_warning () =
  (* a headerless (v1) trace still profiles, with a warning *)
  let p =
    Forensics.profile_string
      "{\"ev\":\"decide\",\"t\":0.1,\"kind\":\"activity\",\"lvl\":1,\"var\":3}\n\
       {\"ev\":\"done\",\"t\":0.2,\"result\":\"sat\",\"conflicts\":0,\"decisions\":1}\n"
  in
  check_bool "no schema" true (p.Forensics.pf_schema = None);
  check_bool "warned" true (p.Forensics.pf_warnings <> []);
  check_bool "result still parsed" true (p.Forensics.pf_result = Some "sat")

(* ---- bench-diff ---- *)

let row section instance engine verdict time =
  {
    Report.br_section = section;
    br_instance = instance;
    br_engine = engine;
    br_verdict = verdict;
    br_time = time;
  }

let test_bench_diff_self_clean () =
  let rows =
    [ row "table2" "a" "hdpll" "unsat" 1.0; row "table2" "b" "hdpll" "sat" 0.3 ]
  in
  let d = Report.diff_rows rows rows in
  check_int "no regressions" 0 d.Report.bd_regressions;
  check_int "all matched" 2 (List.length d.Report.bd_entries);
  check_bool "nothing unmatched" true
    (d.Report.bd_only_old = [] && d.Report.bd_only_new = [])

let test_bench_diff_flags_slowdown () =
  let old_rows = [ row "table2" "a" "hdpll" "unsat" 1.0 ] in
  (* +50% > the 20% threshold and past the absolute floor *)
  let d = Report.diff_rows old_rows [ row "table2" "a" "hdpll" "unsat" 1.5 ] in
  check_int "slowdown flagged" 1 d.Report.bd_regressions;
  (* +10%: within threshold *)
  let d = Report.diff_rows old_rows [ row "table2" "a" "hdpll" "unsat" 1.1 ] in
  check_int "within threshold" 0 d.Report.bd_regressions;
  (* micro-instance jitter below the absolute floor never flags *)
  let d =
    Report.diff_rows
      [ row "table2" "a" "hdpll" "unsat" 0.010 ]
      [ row "table2" "a" "hdpll" "unsat" 0.045 ]
  in
  check_int "jitter below min_time" 0 d.Report.bd_regressions

let test_bench_diff_verdicts () =
  let d =
    Report.diff_rows
      [ row "table2" "a" "hdpll" "unsat" 1.0 ]
      [ row "table2" "a" "hdpll" "timeout" 5.0 ]
  in
  check_int "degradation is a regression" 1 d.Report.bd_regressions;
  let d =
    Report.diff_rows
      [ row "table2" "a" "hdpll" "sat" 1.0 ]
      [ row "table2" "a" "hdpll" "unsat" 1.0 ]
  in
  check_int "sat/unsat flip is a regression" 1 d.Report.bd_regressions;
  let d =
    Report.diff_rows
      [ row "table2" "a" "hdpll" "timeout" 5.0 ]
      [ row "table2" "a" "hdpll" "unsat" 1.0 ]
  in
  check_int "now solved is not a regression" 0 d.Report.bd_regressions;
  (match d.Report.bd_entries with
   | [ e ] -> check_bool "but noted" true (e.Report.de_status = Report.Improvement)
   | _ -> Alcotest.fail "expected one entry")

let test_bench_diff_unmatched () =
  let d =
    Report.diff_rows
      [ row "table2" "gone" "hdpll" "sat" 1.0 ]
      [ row "table2" "new" "hdpll" "sat" 1.0 ]
  in
  check_int "nothing compared" 0 (List.length d.Report.bd_entries);
  check_bool "old key reported" true
    (d.Report.bd_only_old = [ ("table2", "gone", "hdpll") ]);
  check_bool "new key reported" true
    (d.Report.bd_only_new = [ ("table2", "new", "hdpll") ])

(* ---- the report serializers ---- *)

let test_solve_json_shape () =
  let obs = Obs.create () in
  let inst = Registry.instance ~circuit:"b01" ~prop:"1" ~bound:5 in
  let r =
    Engines.run_instance
      ~req:(Rtlsat_harness.Req.make ~timeout:60.0 ~obs ())
      Engines.Hdpll_sp inst
  in
  let j =
    Json.of_string
      (Json.to_string (Report.solve_json ~instance:"b01_1(5)" ~bound:5
                         Engines.Hdpll_sp r))
  in
  check_bool "schema tag" true
    (Option.bind (Json.member "schema" j) Json.get_string
     = Some "rtlsat.solve/1");
  check_bool "verdict" true
    (Option.bind (Json.member "verdict" j) Json.get_string = Some "unsat");
  List.iter
    (fun key ->
       check_bool (key ^ " in stats") true
         (Option.bind (Json.member "stats" j) (Json.member key) <> None))
    [ "decisions"; "conflicts"; "propagations"; "learned"; "jconflicts";
      "final_checks"; "splits"; "relations"; "learn_time_s"; "solve_time_s" ];
  check_bool "metrics attached" true (Json.member "metrics" j <> None)

(* ---- telemetry: heartbeats, flight recorder, OpenMetrics ---- *)

let fixture_file name =
  if Sys.file_exists (Filename.concat "fixtures" name) then
    Filename.concat "fixtures" name
  else
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
      name

let test_heartbeat_rates () =
  let hb = Heartbeat.create ~every:1.0 in
  check_bool "due immediately" true (Heartbeat.due hb 0.0);
  let fields =
    Heartbeat.beat hb ~now:100.0 ~now_rel:2.0 ~decisions:200 ~conflicts:20
      ~propagations:10000 ~splits:3 ~stalls:1 ~shaved:42 ~lvl:7
  in
  let geti name = Option.bind (List.assoc_opt name fields) Json.get_int in
  let getf name = Option.bind (List.assoc_opt name fields) Json.get_float in
  check_bool "seq" true (geti "seq" = Some 1);
  check_bool "decisions total" true (geti "decisions" = Some 200);
  (* first beat: deltas over now_rel - 0 = 2s *)
  check_bool "dps" true (getf "dps" = Some 100.0);
  check_bool "pps" true (getf "pps" = Some 5000.0);
  check_bool "lvl" true (geti "lvl" = Some 7);
  check_bool "not due after beat" false (Heartbeat.due hb 100.5);
  check_bool "due after interval" true (Heartbeat.due hb 101.0);
  let fields2 =
    Heartbeat.beat hb ~now:101.0 ~now_rel:3.0 ~decisions:250 ~conflicts:20
      ~propagations:11000 ~splits:3 ~stalls:1 ~shaved:50 ~lvl:2
  in
  let getf2 name = Option.bind (List.assoc_opt name fields2) Json.get_float in
  check_bool "dps delta" true (getf2 "dps" = Some 50.0);
  check_bool "cps zero delta" true (getf2 "cps" = Some 0.0);
  (match Heartbeat.create ~every:0.0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "zero interval accepted")

let test_heartbeat_view () =
  let v = Heartbeat.view () in
  let feed line = Heartbeat.view_update v (Json.of_string line) in
  let ic = open_in (fixture_file "trace_v5.jsonl") in
  (try
     while true do
       feed (input_line ic)
     done
   with End_of_file -> close_in ic);
  check_bool "schema" true (v.Heartbeat.v_schema = Some "rtlsat.trace/5");
  check_int "decisions" 100 v.Heartbeat.v_decisions;
  check_bool "dps" true (v.Heartbeat.v_dps = 200.0);
  check_bool "bound from heartbeat" true (v.Heartbeat.v_bound = Some 10);
  check_bool "bounds total" true (v.Heartbeat.v_bounds_total = Some 2);
  (match v.Heartbeat.v_bound_results with
   | [ r ] ->
     check_int "result bound" 10 r.Heartbeat.b_bound;
     check_string "result verdict" "unsat" r.Heartbeat.b_verdict
   | l -> Alcotest.fail (Printf.sprintf "%d bound results" (List.length l)));
  check_bool "done" true (v.Heartbeat.v_result = Some "unsat");
  check_int "events" 5 v.Heartbeat.v_events

let test_recorder_ring () =
  let r = Recorder.create ~cap:4 () in
  check_bool "fresh is empty" true (Recorder.is_empty r);
  for i = 1 to 6 do
    Recorder.record r ~t_rel:(float_of_int i)
      ~ev:"decide" [ ("var", Json.Int i) ]
  done;
  check_int "recorded caps at capacity" 4 (Recorder.recorded r);
  check_int "dropped counts overflow" 2 (Recorder.dropped r);
  let seen = ref [] in
  Recorder.iter r (fun e ->
      match List.assoc_opt "var" e.Recorder.e_fields with
      | Some (Json.Int v) -> seen := v :: !seen
      | _ -> ());
  (* oldest first: 3,4,5,6 survive a cap of 4 *)
  check_bool "oldest-first order" true (List.rev !seen = [ 3; 4; 5; 6 ])

let test_recorder_dump_roundtrip () =
  let r = Recorder.create ~cap:3 () in
  for i = 1 to 5 do
    Recorder.record r ~t_rel:(0.1 *. float_of_int i)
      ~ev:"decide"
      [ ("kind", Json.Str "activity"); ("lvl", Json.Int 1); ("var", Json.Int i) ]
  done;
  let path = Filename.temp_file "rtlsat_rec" ".jsonl" in
  Recorder.dump r path;
  let p = Forensics.profile_file path in
  Sys.remove path;
  check_bool "dump replays at the current version" true
    (p.Forensics.pf_version = Forensics.max_trace_version);
  check_bool "decide events survive" true
    (List.assoc_opt "decide" p.Forensics.pf_events = Some 3);
  (* 2 of 5 events fell off the ring: the profiler must say so *)
  check_bool "drop warning" true
    (List.exists
       (fun w ->
          List.exists
            (fun part ->
               String.length w >= String.length part
               &&
               let rec find i =
                 i + String.length part <= String.length w
                 && (String.sub w i (String.length part) = part || find (i + 1))
               in
               find 0)
            [ "dropped" ])
       p.Forensics.pf_warnings)

let test_flight_dump_through_obs () =
  let obs = Obs.create ~recorder:(Recorder.create ()) () in
  let _ = solve_instance ~obs () in
  let path = Filename.temp_file "rtlsat_flight" ".jsonl" in
  check_bool "dump written" true (Obs.flight_dump obs path);
  let p = Forensics.profile_file path in
  Sys.remove path;
  check_bool "dump carries the run's result" true
    (p.Forensics.pf_result = Some "unsat");
  check_bool "recorder marker seen" true
    (List.mem_assoc "recorder" p.Forensics.pf_events);
  (* no recorder attached -> nothing to dump *)
  let bare = Obs.create () in
  check_bool "no recorder, no dump" false (Obs.flight_dump bare "/nonexistent/x")

let test_overhead_guard () =
  (* Telemetry must not blow up solve time.  Best-of-3 on both arms
     to shed scheduler noise; the bar is deliberately generous (2x +
     0.25s) — it catches an accidentally hot heartbeat gate, not
     micro-regressions. *)
  let best_of f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let off = best_of (fun () -> solve_instance ()) in
  let on_ =
    best_of (fun () ->
        let obs =
          Obs.create ~recorder:(Recorder.create ()) ~heartbeat_every:0.05 ()
        in
        solve_instance ~obs ())
  in
  check_bool
    (Printf.sprintf "telemetry overhead (off %.3fs, on %.3fs)" off on_)
    true
    (on_ <= (off *. 2.0) +. 0.25)

(* The CLI-default handle (flight recorder, 1 s heartbeat) on a
   b13-class search, against Obs.disabled, best-of-3 each with the two
   arms interleaved so a load change hits both: a few clock reads per
   propagation run may cost little, a clock read per constraint wakeup
   or a full frontier scan per decision may not. *)
let test_overhead_guard_cli_default () =
  let time f =
    let t0 = Mono.now () in
    ignore (f ());
    Mono.now () -. t0
  in
  let off = ref infinity and on_ = ref infinity in
  for _ = 1 to 3 do
    off := Float.min !off (time (fun () -> solve_instance ~prop:"2" ~bound:50 ()));
    on_ :=
      Float.min !on_
        (time (fun () ->
             let obs =
               Obs.create ~recorder:(Recorder.create ()) ~heartbeat_every:1.0 ()
             in
             solve_instance ~obs ~prop:"2" ~bound:50 ()))
  done;
  check_bool
    (Printf.sprintf "CLI-default telemetry overhead (off %.3fs, on %.3fs)" !off
       !on_)
    true
    (!on_ <= (!off *. 1.35) +. 0.03)

let test_openmetrics_exposition () =
  let obs = Obs.create () in
  Obs.span obs Obs.Icp (fun () -> ());
  Obs.incr obs "fme.calls";
  Obs.observe_learned_len obs 3;
  let text = Openmetrics.of_snapshot (Obs.snapshot obs) in
  let contains part =
    let n = String.length text and k = String.length part in
    let rec find i = i + k <= n && (String.sub text i k = part || find (i + 1)) in
    find 0
  in
  check_bool "wall gauge" true (contains "# TYPE rtlsat_wall_seconds gauge");
  check_bool "counter sanitized + _total" true
    (contains "rtlsat_fme_calls_total 1");
  check_bool "phase label" true
    (contains "rtlsat_phase_self_seconds{phase=\"icp\"}");
  check_bool "histogram +Inf bucket" true
    (contains "rtlsat_learned_clause_len_bucket{le=\"+Inf\"} 1");
  check_bool "histogram sum" true (contains "rtlsat_learned_clause_len_sum 3");
  check_bool "ends with EOF" true
    (String.length text >= 6
     && String.sub text (String.length text - 6) 6 = "# EOF\n")

let test_openmetrics_solve_report () =
  let j =
    Json.Obj
      [
        ("schema", Json.Str "rtlsat.solve/1");
        ("instance", Json.Str "b01_1(5)\"quoted\\");
        ("engine", Json.Str "hdpll");
        ("verdict", Json.Str "unsat");
        ("time_s", Json.Float 0.25);
        ("decisions", Json.Int 12);
        ("conflicts", Json.Int 3);
      ]
  in
  let text = Openmetrics.of_json j in
  let contains part =
    let n = String.length text and k = String.length part in
    let rec find i = i + k <= n && (String.sub text i k = part || find (i + 1)) in
    find 0
  in
  check_bool "info metric with escaped labels" true
    (contains "instance=\"b01_1(5)\\\"quoted\\\\\"");
  check_bool "verdict label" true (contains "verdict=\"unsat\"");
  check_bool "decisions counter" true
    (contains "rtlsat_solver_decisions_total 12");
  check_string "sanitize" "fme_calls_2" (Openmetrics.sanitize "fme.calls-2")

(* ---- trace version dispatch ---- *)

let test_trace_version_table () =
  check_int "max version" 8 Forensics.max_trace_version;
  List.iter
    (fun v ->
       check_bool
         (Printf.sprintf "version %d in table" v)
         true
         (List.mem_assoc v Forensics.trace_versions))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  check_bool "current schema parses" true
    (Forensics.schema_version Trace.schema = Some Forensics.max_trace_version);
  check_bool "foreign tag rejected" true
    (Forensics.schema_version "somebody.else/3" = None)

let test_profile_every_version () =
  List.iter
    (fun v ->
       let p =
         Forensics.profile_file
           (fixture_file (Printf.sprintf "trace_v%d.jsonl" v))
       in
       check_int (Printf.sprintf "v%d dispatched" v) v p.Forensics.pf_version;
       check_bool
         (Printf.sprintf "v%d result parsed" v)
         true
         (p.Forensics.pf_result <> None))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_profile_unsupported_version () =
  match Forensics.profile_file (fixture_file "trace_v9_unsupported.jsonl") with
  | _ -> Alcotest.fail "future schema accepted"
  | exception Forensics.Unsupported_schema msg ->
    check_bool "message names the supported range" true
      (let part =
         Printf.sprintf "rtlsat.trace/%d" Forensics.max_trace_version
       in
       let n = String.length msg and k = String.length part in
       let rec find i = i + k <= n && (String.sub msg i k = part || find (i + 1)) in
       find 0)

(* ---- GC/memory telemetry ---- *)

let test_snapshot_mem () =
  let t = Obs.create () in
  Obs.span t Obs.Icp (fun () -> ignore (Sys.opaque_identity (Array.make 100_000 0.0)));
  let s = Obs.snapshot t in
  (match s.Obs.mem with
   | Some m ->
     check_bool "minor words accrued" true (m.Obs.minor_words > 0.0);
     check_bool "heap words positive" true (m.Obs.heap_words > 0);
     check_bool "top heap covers heap" true
       (m.Obs.top_heap_words >= m.Obs.heap_words
        || m.Obs.top_heap_words > 0)
   | None -> Alcotest.fail "mem missing on an enabled handle");
  (match List.assoc_opt "icp" s.Obs.phase_alloc with
   | Some a -> check_bool "icp allocation attributed" true (a > 0.0)
   | None -> Alcotest.fail "no per-phase allocation for icp");
  check_bool "disabled handle carries no mem" true
    ((Obs.snapshot Obs.disabled).Obs.mem = None);
  let j = Json.of_string (Json.to_string (Obs.snapshot_json s)) in
  check_bool "mem object in snapshot json" true
    (Option.bind (Json.member "mem" j) (Json.member "heap_mb") <> None);
  check_bool "phase alloc_w in snapshot json" true
    (Option.bind
       (Option.bind (Option.bind (Json.member "phases" j) (Json.member "icp"))
          (Json.member "alloc_w"))
       Json.get_float
     <> None)

let test_heartbeat_gc_fields () =
  (* heartbeats under trace/7 carry the GC gauges; driven directly
     because a small solve can finish inside one heartbeat gate *)
  let path = Filename.temp_file "rtlsat_hbgc" ".jsonl" in
  let obs = Obs.create ~trace:(Trace.to_file path) ~heartbeat_every:0.001 () in
  Obs.heartbeat_tick obs ~decisions:10 ~conflicts:1 ~propagations:100 ~splits:0
    ~lvl:1;
  Obs.close obs;
  let ic = open_in path in
  let found = ref None in
  (try
     while true do
       let j = Json.of_string (input_line ic) in
       if Option.bind (Json.member "ev" j) Json.get_string = Some "heartbeat"
       then found := Some j
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  match !found with
  | None -> Alcotest.fail "no heartbeat in an instrumented solve"
  | Some j ->
    check_bool "major_words" true
      (Option.bind (Json.member "major_words" j) Json.get_float <> None);
    check_bool "heap_mb positive" true
      (match Option.bind (Json.member "heap_mb" j) Json.get_float with
       | Some v -> v > 0.0
       | None -> false);
    check_bool "compactions" true
      (Option.bind (Json.member "compactions" j) Json.get_int <> None)

(* ---- heartbeat rate math under a misbehaving clock ---- *)

let test_heartbeat_dt_guard () =
  let hb = Heartbeat.create ~every:1.0 in
  let beat ~now ~now_rel ~d ~c ~p =
    Heartbeat.beat hb ~now ~now_rel ~decisions:d ~conflicts:c ~propagations:p
      ~splits:0 ~stalls:0 ~shaved:0 ~lvl:1
  in
  let getf fields name = Option.bind (List.assoc_opt name fields) Json.get_float in
  let geti fields name = Option.bind (List.assoc_opt name fields) Json.get_int in
  let f1 = beat ~now:100.0 ~now_rel:2.0 ~d:200 ~c:20 ~p:10000 in
  check_bool "baseline dps" true (getf f1 "dps" = Some 100.0);
  (* stalled clock: dt = 0 must not divide by zero *)
  let f2 = beat ~now:101.0 ~now_rel:2.0 ~d:300 ~c:30 ~p:20000 in
  check_bool "totals stay current" true (geti f2 "decisions" = Some 300);
  check_bool "seq still advances" true (geti f2 "seq" = Some 2);
  check_bool "dps cached" true (getf f2 "dps" = Some 100.0);
  check_bool "cps cached" true (getf f2 "cps" = Some 10.0);
  check_bool "pps cached" true (getf f2 "pps" = Some 5000.0);
  (* clock stepped backwards: dt < 0 must not go negative *)
  let f3 = beat ~now:102.0 ~now_rel:1.0 ~d:320 ~c:32 ~p:21000 in
  List.iter
    (fun name ->
       match getf f3 name with
       | Some v ->
         check_bool (name ^ " finite and non-negative") true
           (Float.is_finite v && v >= 0.0)
       | None -> Alcotest.fail (name ^ " missing"))
    [ "dps"; "cps"; "pps" ];
  (* recovery: the frozen baseline spans the whole stalled gap *)
  let f4 = beat ~now:103.0 ~now_rel:4.0 ~d:400 ~c:40 ~p:30000 in
  check_bool "recovered dps" true (getf f4 "dps" = Some 100.0);
  check_bool "recovered cps" true (getf f4 "cps" = Some 10.0);
  check_bool "recovered pps" true (getf f4 "pps" = Some 10000.0)

let test_heartbeat_view_v7 () =
  let v = Heartbeat.view () in
  let ic = open_in (fixture_file "trace_v7.jsonl") in
  (try
     while true do
       Heartbeat.view_update v (Json.of_string (input_line ic))
     done
   with End_of_file -> close_in ic);
  check_bool "schema" true (v.Heartbeat.v_schema = Some "rtlsat.trace/7");
  check_bool "heap gauge" true (v.Heartbeat.v_heap_mb = 17.5);
  check_bool "major words" true (v.Heartbeat.v_major_words = 123456.0);
  check_int "compactions" 1 v.Heartbeat.v_compactions

let test_openmetrics_gc_gauges () =
  let obs = Obs.create () in
  Obs.span obs Obs.Icp (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0)));
  let text = Openmetrics.of_snapshot (Obs.snapshot obs) in
  let contains part =
    let n = String.length text and k = String.length part in
    let rec find i = i + k <= n && (String.sub text i k = part || find (i + 1)) in
    find 0
  in
  check_bool "heap gauge exported" true (contains "rtlsat_gc_heap_mb");
  check_bool "minor words exported" true (contains "rtlsat_gc_minor_words")

(* ---- environment fingerprint ---- *)

let test_env_fingerprint () =
  let fp = Env.fingerprint () in
  check_bool "git_rev non-empty" true (fp.Env.git_rev <> "");
  check_bool "hostname non-empty" true (fp.Env.hostname <> "");
  check_string "ocaml_version" Sys.ocaml_version fp.Env.ocaml_version;
  check_int "word_size" Sys.word_size fp.Env.word_size;
  let j = Json.of_string (Json.to_string (Env.fingerprint_json ())) in
  List.iter
    (fun key ->
       check_bool (key ^ " in json") true (Json.member key j <> None))
    [ "git_rev"; "git_dirty"; "hostname"; "ocaml_version"; "word_size" ]

(* ---- the cross-run ledger ---- *)

let mk_run ?(instance = "b13_1(10)") ?(engine = "hdpll")
    ?(options = "bound=10") ?(wall = 1.0) i =
  Ledger.make ~now:(1.7e9 +. float_of_int i) ~pid:42 ~subcommand:"solve"
    ~argv:[ "rtlsat"; "solve" ] ~instance ~engine ~options ~verdict:"unsat"
    ~wall_s:wall
    ~counters:[ ("decisions", 5); ("conflicts", 2) ]
    ~artifacts:[ ("trace", "t.jsonl") ]
    ()

let test_ledger_round_trip () =
  let dir = Filename.temp_file "rtlsat_ledger" "" in
  Sys.remove dir;
  (* a path whose parent does not exist yet: append must create it *)
  let path = Filename.concat dir "ledger.jsonl" in
  Ledger.append ~path (mk_run ~wall:1.0 0);
  Ledger.append ~path (mk_run ~wall:2.0 1);
  Ledger.append ~path (mk_run ~engine:"bitblast" ~wall:3.0 2);
  let all = Ledger.load ~path in
  check_int "all records load" 3 (List.length all);
  (match all with
   | r :: _ ->
     check_string "subcommand" "solve" r.Ledger.subcommand;
     check_string "instance" "b13_1(10)" r.Ledger.instance;
     check_string "engine" "hdpll" r.Ledger.engine;
     check_string "verdict" "unsat" r.Ledger.verdict;
     check_bool "wall" true (r.Ledger.wall_s = 1.0);
     check_bool "distinct run ids" true
       (match all with
        | a :: b :: _ -> a.Ledger.id <> b.Ledger.id
        | _ -> false);
     check_bool "env fingerprint embedded" true
       (Option.bind (Json.member "env" r.Ledger.json) (Json.member "git_rev")
        <> None);
     check_bool "counters survive" true
       (Option.bind
          (Option.bind (Json.member "counters" r.Ledger.json)
             (Json.member "decisions"))
          Json.get_int
        = Some 5)
   | [] -> Alcotest.fail "empty ledger");
  check_int "filter by engine" 2
    (List.length (Ledger.filter ~engine:"hdpll" all));
  check_int "filter last" 1 (List.length (Ledger.filter ~last:1 all));
  (match Ledger.filter ~last:1 all with
   | [ r ] -> check_string "last keeps the newest" "bitblast" r.Ledger.engine
   | _ -> Alcotest.fail "last 1");
  check_int "filter instance miss" 0
    (List.length (Ledger.filter ~instance:"nope" all));
  (* a torn final line (crash mid-append) must not poison the ledger *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"schema\":\"rtlsat.run/1\",\"id\":\"torn";
  close_out oc;
  check_int "torn tail skipped" 3 (List.length (Ledger.load ~path));
  check_bool "missing file is an empty ledger" true
    (Ledger.load ~path:(Filename.concat dir "absent.jsonl") = []);
  Sys.remove path;
  Unix.rmdir dir

let test_ledger_median_slow () =
  check_bool "empty median" true (Ledger.median [] = 0.0);
  check_bool "odd median" true (Ledger.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check_bool "even median" true (Ledger.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  let parse j =
    match Ledger.of_json j with
    | Some r -> r
    | None -> Alcotest.fail "of_json rejected a fresh record"
  in
  let records =
    List.map parse
      [
        mk_run ~wall:1.0 0;
        mk_run ~wall:2.0 1;
        mk_run ~wall:10.0 2;
        mk_run ~engine:"bitblast" ~wall:0.5 3;
      ]
  in
  let nth = List.nth records in
  check_bool "outlier flagged slow" true (Ledger.slow records (nth 2));
  check_bool "at-median run not slow" false (Ledger.slow records (nth 1));
  check_bool "fastest not slow" false (Ledger.slow records (nth 0));
  check_bool "a key's only record is never slow" false
    (Ledger.slow records (nth 3));
  check_bool "of_json rejects foreign schema" true
    (Ledger.of_json (Json.Obj [ ("schema", Json.Str "other/1") ]) = None)

(* ---- trace-diff ---- *)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let header7 = "{\"ev\":\"header\",\"t\":0,\"schema\":\"rtlsat.trace/7\"}"

let decide ~t ~var ~lvl =
  Printf.sprintf
    "{\"ev\":\"decide\",\"t\":%g,\"kind\":\"activity\",\"lvl\":%d,\"var\":%d}" t
    lvl var

let test_trace_diff_divergence () =
  let old_file = Filename.temp_file "rtlsat_tdo" ".jsonl" in
  let new_file = Filename.temp_file "rtlsat_tdn" ".jsonl" in
  write_lines old_file
    [
      header7;
      decide ~t:0.1 ~var:1 ~lvl:1;
      decide ~t:0.2 ~var:2 ~lvl:2;
      "{\"ev\":\"conflict\",\"t\":0.3,\"lvl\":2,\"bt\":1,\"len\":3}";
      "{\"ev\":\"phases\",\"t\":0.9,\"self_s\":{\"bcp\":0.5,\"icp\":0.1}}";
      "{\"ev\":\"done\",\"t\":1.0,\"result\":\"unsat\",\"conflicts\":1,\"decisions\":2}";
    ];
  write_lines new_file
    [
      header7;
      decide ~t:0.1 ~var:1 ~lvl:1;
      decide ~t:0.2 ~var:7 ~lvl:2;
      "{\"ev\":\"phases\",\"t\":0.4,\"self_s\":{\"bcp\":0.2,\"icp\":0.1}}";
      "{\"ev\":\"done\",\"t\":0.5,\"result\":\"sat\",\"conflicts\":0,\"decisions\":2}";
    ];
  let d = Trace_diff.diff ~old_file ~new_file in
  Sys.remove old_file;
  Sys.remove new_file;
  check_bool "old schema" true (d.Trace_diff.old_side.Trace_diff.schema = Some "rtlsat.trace/7");
  check_bool "verdicts read" true
    (d.Trace_diff.old_side.Trace_diff.verdict = Some "unsat"
     && d.Trace_diff.new_side.Trace_diff.verdict = Some "sat");
  check_bool "verdict divergence detected" true d.Trace_diff.verdict_diverged;
  check_int "exit 1 on verdict flip" 1 (Trace_diff.exit_code d);
  (match d.Trace_diff.first with
   | Some dv ->
     check_int "diverges at the second decision" 1 dv.Trace_diff.index;
     check_bool "old key names var 2" true
       (match dv.Trace_diff.older with
        | Some k ->
          let part = "var=2" in
          let n = String.length k and l = String.length part in
          let rec find i =
            i + l <= n && (String.sub k i l = part || find (i + 1))
          in
          find 0
        | None -> false)
   | None -> Alcotest.fail "no divergence found");
  check_bool "phase delta visible" true
    (List.assoc_opt "bcp" d.Trace_diff.old_side.Trace_diff.phases = Some 0.5)

let test_trace_diff_identical () =
  let f = Filename.temp_file "rtlsat_tdi" ".jsonl" in
  write_lines f
    [
      header7;
      decide ~t:0.1 ~var:1 ~lvl:1;
      "{\"ev\":\"done\",\"t\":0.2,\"result\":\"sat\",\"conflicts\":0,\"decisions\":1}";
    ];
  let d = Trace_diff.diff ~old_file:f ~new_file:f in
  Sys.remove f;
  check_bool "no divergence" true (d.Trace_diff.first = None);
  check_bool "verdicts agree" false d.Trace_diff.verdict_diverged;
  check_int "exit 0" 0 (Trace_diff.exit_code d)

let test_trace_diff_truncated () =
  (* one trace is a strict prefix of the other: the divergence is the
     length difference, and a missing done is a verdict divergence *)
  let old_file = Filename.temp_file "rtlsat_tdt" ".jsonl" in
  let new_file = Filename.temp_file "rtlsat_tdt" ".jsonl" in
  write_lines old_file
    [
      header7;
      decide ~t:0.1 ~var:1 ~lvl:1;
      decide ~t:0.2 ~var:2 ~lvl:2;
      "{\"ev\":\"done\",\"t\":0.3,\"result\":\"sat\",\"conflicts\":0,\"decisions\":2}";
    ];
  write_lines new_file [ header7; decide ~t:0.1 ~var:1 ~lvl:1 ];
  let d = Trace_diff.diff ~old_file ~new_file in
  Sys.remove old_file;
  Sys.remove new_file;
  (match d.Trace_diff.first with
   | Some dv ->
     check_int "diverges where the short trace ends" 1 dv.Trace_diff.index;
     check_bool "new side ended" true (dv.Trace_diff.newer = None);
     check_bool "old side still has the event" true (dv.Trace_diff.older <> None)
   | None -> Alcotest.fail "prefix not reported as divergence");
  check_bool "missing done diverges the verdict" true d.Trace_diff.verdict_diverged;
  check_int "exit 1" 1 (Trace_diff.exit_code d)

(* ---- bench-history ---- *)

let mk_bench_artifact ~generated_at rows =
  let run (engine, verdict, time) =
    Json.Obj
      [
        ("engine", Json.Str engine);
        ("verdict", Json.Str verdict);
        ("time_s", Json.Float time);
      ]
  in
  let row (instance, runs) =
    Json.Obj
      [
        ("instance", Json.Str instance);
        ("runs", Json.Arr (List.map run runs));
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "rtlsat.bench/1");
      ("generated_at", Json.Str generated_at);
      ( "sections",
        Json.Obj
          [ ("table2", Json.Obj [ ("rows", Json.Arr (List.map row rows)) ]) ]
      );
    ]

let test_bench_history_aggregation () =
  let a =
    mk_bench_artifact ~generated_at:"2026-08-01T00:00:00Z"
      [
        ("i1", [ ("hdpll", "unsat", 1.0); ("bitblast", "timeout", 5.0) ]);
        ("i2", [ ("hdpll", "sat", 0.5) ]);
      ]
  in
  let b =
    mk_bench_artifact ~generated_at:"2026-08-02T00:00:00Z"
      [
        ("i1", [ ("hdpll", "unsat", 0.8); ("bitblast", "abort", 0.1) ]);
        ("i2", [ ("hdpll", "sat", 0.4) ]);
      ]
  in
  let points = Report.bench_history [ ("old", a); ("new", b) ] in
  (match points with
   | [ p1; p2 ] ->
     check_string "order preserved" "old" p1.Report.hp_label;
     check_int "runs" 3 p1.Report.hp_runs;
     check_int "solved" 2 p1.Report.hp_solved;
     check_int "timeouts" 1 p1.Report.hp_timeouts;
     check_int "aborts" 0 p1.Report.hp_aborts;
     check_bool "total time" true (abs_float (p1.Report.hp_total_time -. 6.5) < 1e-9);
     check_int "new aborts" 1 p2.Report.hp_aborts;
     check_int "new timeouts" 0 p2.Report.hp_timeouts
   | l -> Alcotest.fail (Printf.sprintf "%d points" (List.length l)));
  match Report.bench_history_json points with
  | Json.Obj fields ->
    check_bool "schema" true
      (List.assoc_opt "schema" fields
       = Some (Json.Str "rtlsat.bench_history/1"));
    (match Option.bind (List.assoc_opt "sections" fields) Json.get_obj with
     | Some [ ("table2", Json.Arr pts) ] -> check_int "points in json" 2 (List.length pts)
     | _ -> Alcotest.fail "sections shape")
  | _ -> Alcotest.fail "not an object"

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "hist",
        [
          Alcotest.test_case "buckets" `Quick test_hist_buckets;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "bad limits" `Quick test_hist_bad_limits;
        ] );
      ( "obs",
        [
          Alcotest.test_case "span self time" `Quick test_span_self_time;
          Alcotest.test_case "span exception safety" `Quick
            test_span_exception_safe;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "disabled handle is inert" `Quick
            test_disabled_is_inert;
          Alcotest.test_case "snapshot json schema" `Quick
            test_snapshot_json_schema;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "stall detection" `Quick test_stall_detection;
          Alcotest.test_case "stall preconditions" `Quick
            test_stall_needs_wide_domain_and_tiny_shave;
          Alcotest.test_case "attribution" `Quick test_forensics_attribution;
          Alcotest.test_case "attribution stable across runs" `Quick
            test_attribution_stable_across_runs;
          Alcotest.test_case "w61 stall + profile (splits off)" `Quick
            test_w61_stall_and_profile;
          Alcotest.test_case "w61 cured by splits in all configs" `Quick
            test_w61_split_cures_all_configs;
          Alcotest.test_case "split decisions" `Quick test_split_decisions_unit;
          Alcotest.test_case "split determinism + off-switch" `Quick
            test_split_determinism_and_off;
          Alcotest.test_case "profile v1 warning" `Quick test_profile_v1_warning;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "self-diff clean" `Quick test_bench_diff_self_clean;
          Alcotest.test_case "slowdown threshold" `Quick
            test_bench_diff_flags_slowdown;
          Alcotest.test_case "verdict changes" `Quick test_bench_diff_verdicts;
          Alcotest.test_case "unmatched keys" `Quick test_bench_diff_unmatched;
        ] );
      ( "integration",
        [
          Alcotest.test_case "trace round trip" `Quick test_trace_round_trip;
          Alcotest.test_case "determinism under observation" `Quick
            test_observation_does_not_change_solve;
          Alcotest.test_case "solve json shape" `Quick test_solve_json_shape;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "heartbeat rates" `Quick test_heartbeat_rates;
          Alcotest.test_case "heartbeat dt guard" `Quick test_heartbeat_dt_guard;
          Alcotest.test_case "monitor view fold" `Quick test_heartbeat_view;
          Alcotest.test_case "monitor view v7 gc fields" `Quick
            test_heartbeat_view_v7;
          Alcotest.test_case "recorder ring" `Quick test_recorder_ring;
          Alcotest.test_case "recorder dump round trip" `Quick
            test_recorder_dump_roundtrip;
          Alcotest.test_case "flight dump through obs" `Quick
            test_flight_dump_through_obs;
          Alcotest.test_case "overhead guard" `Slow test_overhead_guard;
          Alcotest.test_case "overhead guard, CLI default on b13_2(50)" `Slow
            test_overhead_guard_cli_default;
          Alcotest.test_case "openmetrics exposition" `Quick
            test_openmetrics_exposition;
          Alcotest.test_case "openmetrics solve report" `Quick
            test_openmetrics_solve_report;
        ] );
      ( "gc-telemetry",
        [
          Alcotest.test_case "snapshot mem + phase alloc" `Quick
            test_snapshot_mem;
          Alcotest.test_case "heartbeat gc fields" `Quick
            test_heartbeat_gc_fields;
          Alcotest.test_case "openmetrics gc gauges" `Quick
            test_openmetrics_gc_gauges;
        ] );
      ( "env",
        [ Alcotest.test_case "fingerprint" `Quick test_env_fingerprint ] );
      ( "ledger",
        [
          Alcotest.test_case "round trip + torn tail" `Quick
            test_ledger_round_trip;
          Alcotest.test_case "median + slow flag" `Quick
            test_ledger_median_slow;
        ] );
      ( "trace-diff",
        [
          Alcotest.test_case "first divergence + verdict flip" `Quick
            test_trace_diff_divergence;
          Alcotest.test_case "identical traces" `Quick test_trace_diff_identical;
          Alcotest.test_case "truncated trace" `Quick test_trace_diff_truncated;
        ] );
      ( "trace-versions",
        [
          Alcotest.test_case "dispatch table" `Quick test_trace_version_table;
          Alcotest.test_case "profile v1..v8 fixtures" `Quick
            test_profile_every_version;
          Alcotest.test_case "unsupported version rejected" `Quick
            test_profile_unsupported_version;
        ] );
      ( "bench-history",
        [
          Alcotest.test_case "aggregation" `Quick test_bench_history_aggregation;
        ] );
    ]
