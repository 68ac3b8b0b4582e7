(* ---- online attribution ---- *)

type t = {
  (* per-constraint *)
  c_wakeups : int array;
  c_narrows : int array;
  c_shaved : int array;
  c_time : float array;
  (* per-word-variable *)
  v_narrows : int array;
  v_shaved : int array;
  mutable total_shaved : int;
  (* stall detection: consecutive small narrowings per variable *)
  v_streak : int array;
  v_streak_shaved : int array;
  v_next_report : int array;
  mutable n_stalls : int;
  (* stall → split attribution: bisection decisions per variable *)
  v_splits : int array;
  mutable n_splits : int;
  (* attribution target while a constraint propagates *)
  mutable cur : int;
  mutable namer : (int -> string) option;
  mutable descr : (int -> string) option;
}

let stall_min_width = 1 lsl 32
let stall_max_shave = 8
let stall_streak = 512

let create ~nvars ~nconstrs =
  {
    c_wakeups = Array.make nconstrs 0;
    c_narrows = Array.make nconstrs 0;
    c_shaved = Array.make nconstrs 0;
    c_time = Array.make nconstrs 0.0;
    v_narrows = Array.make nvars 0;
    v_shaved = Array.make nvars 0;
    total_shaved = 0;
    v_streak = Array.make nvars 0;
    v_streak_shaved = Array.make nvars 0;
    v_next_report = Array.make nvars stall_streak;
    n_stalls = 0;
    v_splits = Array.make nvars 0;
    n_splits = 0;
    cur = -1;
    namer = None;
    descr = None;
  }

let set_names t ~var_name ~constr_desc =
  t.namer <- Some var_name;
  t.descr <- Some constr_desc

let var_name t v =
  match t.namer with Some f -> f v | None -> Printf.sprintf "v%d" v

let constr_desc t ci =
  if ci < 0 then "(clause propagation)"
  else match t.descr with Some f -> f ci | None -> Printf.sprintf "c%d" ci

(* Per-constraint time is sampled: one in [sample_period] wakeups of
   each constraint is timed and stands for the [sample_period] around
   it.  Counting each constraint's own wakeups, at a phase spread by its
   id, keeps constraints woken in turn (the w61 crawl alternates two)
   from aliasing every sample onto one of them.  The counts and the
   narrowing target stay exact on every wakeup. *)
let sample_period = 64

let constr_enter t ci =
  if ci >= 0 && ci < Array.length t.c_wakeups then begin
    let n = t.c_wakeups.(ci) in
    t.c_wakeups.(ci) <- n + 1;
    t.cur <- ci;
    (n + (ci * 37)) land (sample_period - 1) = 0
  end
  else false

let constr_exit t = t.cur <- -1

let constr_exit_sampled t ~enter ~exit =
  if t.cur >= 0 then
    t.c_time.(t.cur) <-
      t.c_time.(t.cur) +. (float_of_int sample_period *. (exit -. enter));
  t.cur <- -1

type stall = {
  st_var : int;
  st_constr : int;
  st_streak : int;
  st_shaved : int;
  st_width : int;
}

let note_narrow t ~var ~shaved ~width =
  if var < 0 || var >= Array.length t.v_narrows then None
  else begin
    t.v_narrows.(var) <- t.v_narrows.(var) + 1;
    t.v_shaved.(var) <- t.v_shaved.(var) + shaved;
    t.total_shaved <- t.total_shaved + shaved;
    if t.cur >= 0 then begin
      t.c_narrows.(t.cur) <- t.c_narrows.(t.cur) + 1;
      t.c_shaved.(t.cur) <- t.c_shaved.(t.cur) + shaved
    end;
    if shaved <= stall_max_shave && width >= stall_min_width then begin
      t.v_streak.(var) <- t.v_streak.(var) + 1;
      t.v_streak_shaved.(var) <- t.v_streak_shaved.(var) + shaved;
      if t.v_streak.(var) >= t.v_next_report.(var) then begin
        t.v_next_report.(var) <- t.v_next_report.(var) * 16;
        t.n_stalls <- t.n_stalls + 1;
        Some
          {
            st_var = var;
            st_constr = t.cur;
            st_streak = t.v_streak.(var);
            st_shaved = t.v_streak_shaved.(var);
            st_width = width;
          }
      end
      else None
    end
    else begin
      (* a decisive narrowing (or a shrunken domain) ends the streak *)
      t.v_streak.(var) <- 0;
      t.v_streak_shaved.(var) <- 0;
      t.v_next_report.(var) <- stall_streak;
      None
    end
  end

let stalls t = t.n_stalls
let total_shaved t = t.total_shaved

let note_split t ~var =
  if var >= 0 && var < Array.length t.v_splits then begin
    t.v_splits.(var) <- t.v_splits.(var) + 1;
    t.n_splits <- t.n_splits + 1
  end

let splits t = t.n_splits

type hot_constr = {
  hc_id : int;
  hc_desc : string;
  hc_wakeups : int;
  hc_narrows : int;
  hc_shaved : int;
  hc_time : float;
}

type hot_var = {
  hv_id : int;
  hv_name : string;
  hv_narrows : int;
  hv_shaved : int;
}

let top_k ~k ~score ~active n =
  let ids = ref [] in
  for i = n - 1 downto 0 do
    if active i then ids := i :: !ids
  done;
  let sorted = List.sort (fun a b -> compare (score b) (score a)) !ids in
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  take k sorted

let top_constraints t ~k =
  top_k ~k
    ~score:(fun ci -> (t.c_time.(ci), t.c_narrows.(ci), t.c_shaved.(ci)))
    ~active:(fun ci -> t.c_narrows.(ci) > 0 || t.c_wakeups.(ci) > 0)
    (Array.length t.c_wakeups)
  |> List.map (fun ci ->
      {
        hc_id = ci;
        hc_desc = constr_desc t ci;
        hc_wakeups = t.c_wakeups.(ci);
        hc_narrows = t.c_narrows.(ci);
        hc_shaved = t.c_shaved.(ci);
        hc_time = t.c_time.(ci);
      })

let top_vars t ~k =
  top_k ~k
    ~score:(fun v -> (t.v_narrows.(v), t.v_shaved.(v)))
    ~active:(fun v -> t.v_narrows.(v) > 0)
    (Array.length t.v_narrows)
  |> List.map (fun v ->
      {
        hv_id = v;
        hv_name = var_name t v;
        hv_narrows = t.v_narrows.(v);
        hv_shaved = t.v_shaved.(v);
      })

(* ---- offline analysis ---- *)

(* The profiler reads every trace version this repo has ever written;
   the dispatch table is the single place a new version is declared.
   An unknown future version is a hard, explicit error — silently
   misreading a v9 trace as v5 would fabricate diagnoses. *)
let trace_versions =
  [
    (1, "headerless: decide/conflict/learn/restart/done");
    (2, "header + forensics events (icp_stall, hot_constraints, hot_vars, \
         phases)");
    (3, "+ split events and the \"split\" decide kind");
    (4, "+ session lifecycle (session.create, solve.begin, \"assumption\" \
         decides)");
    (5, "+ live telemetry (heartbeat, recorder, sweep.bound/sweep.result)");
    (6, "+ simplify.pass (pre/inprocessing over the clause databases)");
    (7, "+ GC/memory telemetry on heartbeats (major_words, heap_mb, \
         compactions)");
    (8, "+ worker-tagged events (parallel portfolio / cube-and-conquer \
         domains carry a \"worker\" field)");
  ]

let max_trace_version =
  List.fold_left (fun acc (v, _) -> max acc v) 0 trace_versions

exception Unsupported_schema of string

let schema_version tag =
  let prefix = "rtlsat.trace/" in
  let plen = String.length prefix in
  if String.length tag > plen && String.sub tag 0 plen = prefix then
    int_of_string_opt (String.sub tag plen (String.length tag - plen))
  else None

(* [Some v] for a known version, raises for a recognizably
   versioned-but-unknown tag or a foreign schema string *)
let check_schema tag =
  match schema_version tag with
  | Some v when List.mem_assoc v trace_versions -> v
  | _ ->
    raise
      (Unsupported_schema
         (Printf.sprintf
            "unsupported trace schema %S: this build reads rtlsat.trace/1 \
             through rtlsat.trace/%d"
            tag max_trace_version))

type stall_info = {
  si_var : int;
  si_name : string;
  si_desc : string;
  si_reports : int;
  si_max_streak : int;
  si_last_width : int;
}

type profile = {
  pf_schema : string option;
  pf_version : int;
  pf_warnings : string list;
  pf_events : (string * int) list;
  pf_wall : float;
  pf_result : string option;
  pf_decisions : (string * int) list;
  pf_conflicts : int;
  pf_learned_len_mean : float;
  pf_backjump_mean : float;
  pf_local_backjumps : int;
  pf_restarts : int;
  pf_splits : int;
  pf_split_vars : int;
  pf_split_stalled : int;
  pf_heartbeats : int;
  pf_stalls : stall_info list;
  pf_hot_constraints : hot_constr list;
  pf_hot_vars : hot_var list;
  pf_phases : (string * float) list;
  pf_diagnosis : string list;
}

let tally tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let sorted_counts tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
      if a <> b then compare b a else compare ka kb)

let field_int j name = Option.bind (Json.member name j) Json.get_int
let field_float j name = Option.bind (Json.member name j) Json.get_float
let field_str j name = Option.bind (Json.member name j) Json.get_string

let hot_constr_of_json j =
  {
    hc_id = Option.value (field_int j "constr") ~default:(-1);
    hc_desc = Option.value (field_str j "desc") ~default:"?";
    hc_wakeups = Option.value (field_int j "wakeups") ~default:0;
    hc_narrows = Option.value (field_int j "narrows") ~default:0;
    hc_shaved = Option.value (field_int j "shaved") ~default:0;
    hc_time = Option.value (field_float j "time_s") ~default:0.0;
  }

let hot_var_of_json j =
  {
    hv_id = Option.value (field_int j "var") ~default:(-1);
    hv_name = Option.value (field_str j "name") ~default:"?";
    hv_narrows = Option.value (field_int j "narrows") ~default:0;
    hv_shaved = Option.value (field_int j "shaved") ~default:0;
  }

let diagnose ~result ~stalls ~phases ~conflicts ~local ~bt_mean ~restarts
    ~decisions ~splits ~split_vars ~split_stalled =
  let out = ref [] in
  let push s = out := s :: !out in
  if splits > 0 then
    push
      (Printf.sprintf
         "interval splitting engaged: %d bisection decision(s) over %d \
          variable(s)%s cut the unit-step crawl into binary search%s."
         splits split_vars
         (if split_stalled > 0 then
            Printf.sprintf
              " (%d of them also reported as stalled, so the stall detector \
               and the split heuristic agree on the culprits)"
              split_stalled
          else "")
         (match result with
          | Some "timeout" ->
            "; the run still timed out — the residual work is elsewhere"
          | _ -> ""))
  else
    (match stalls with
     | s :: _ ->
       push
         (Printf.sprintf
            "slow ICP convergence is the dominant behaviour: variable '%s' was \
             narrowed %d+ consecutive times by tiny steps across a >= 2^32-wide \
             domain (last observed width %d, driven by %s)%s.  Suggested next \
             steps: interval splitting / bisection decisions on the stalled \
             variable (rerun without --no-split), a width-triggered fallback \
             to bitblasting, or widening the per-sweep tightening for \
             wrap-around constraints."
            s.si_name s.si_max_streak s.si_last_width s.si_desc
            (match result with
             | Some "timeout" -> "; the run timed out"
             | _ -> ""))
     | [] -> ());
  (match phases with
   | [] -> ()
   | phases ->
     let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 phases in
     let name, self =
       List.fold_left
         (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
         ("", 0.0) phases
     in
     if total > 0.0 && self /. total >= 0.5 then
       push
         (Printf.sprintf
            "phase '%s' dominates solver time: %.3fs of %.3fs (%.0f%%) of \
             attributed phase time." name self total (100.0 *. self /. total)));
  if conflicts >= 100 && float_of_int local >= 0.8 *. float_of_int conflicts
  then
    push
      (Printf.sprintf
         "conflicts are highly local: %d of %d (%.0f%%) backjump <= 2 levels \
          (mean %.1f); the search is thrashing near the leaves — stronger \
          learning or more aggressive restarts may help."
         local conflicts
         (100.0 *. float_of_int local /. float_of_int conflicts)
         bt_mean);
  if restarts > 0 && conflicts > 0 then
    push
      (Printf.sprintf
         "restart efficacy: %d restart(s), a mean of %.0f conflicts between \
          restarts." restarts
         (float_of_int conflicts /. float_of_int (restarts + 1)));
  if decisions = 0 && conflicts = 0 && stalls <> [] then
    push
      "the solver never reached a decision: root-level propagation consumed \
       the whole run.";
  if !out = [] then
    push "no pathology detected: no stalls, no dominant phase, conflicts \
          backjump normally.";
  List.rev !out

let profile_string text =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  let events = Hashtbl.create 16 in
  let decisions = Hashtbl.create 4 in
  let schema = ref None in
  let version = ref 1 in
  let heartbeats = ref 0 in
  let wall = ref 0.0 in
  let result = ref None in
  let conflicts = ref 0 in
  let len_sum = ref 0 in
  let bt_sum = ref 0 in
  let local = ref 0 in
  let restarts = ref 0 in
  let n_decisions = ref 0 in
  let stall_tbl : (int, stall_info) Hashtbl.t = Hashtbl.create 4 in
  let n_splits = ref 0 in
  let split_tbl : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let hot_constraints = ref [] in
  let hot_vars = ref [] in
  let phases = ref [] in
  let first = ref true in
  let n_bad = ref 0 in
  let handle line =
    match Json.of_string line with
    | exception Json.Parse_error _ -> incr n_bad
    | j ->
      let ev = Option.value (field_str j "ev") ~default:"?" in
      tally events ev;
      (match field_float j "t" with Some t when t > !wall -> wall := t | _ -> ());
      if !first then begin
        first := false;
        match ev with
        | "header" ->
          (match field_str j "schema" with
           | Some tag ->
             version := check_schema tag;
             schema := Some tag
           | None ->
             warn "trace header carries no schema tag; assuming the current \
                   version")
        | _ ->
          warn
            "no trace header: treating this as a v1 (rtlsat.trace/1) trace — \
             stall and attribution events were not emitted by that version"
      end;
      (match ev with
       | "decide" ->
         incr n_decisions;
         tally decisions (Option.value (field_str j "kind") ~default:"?")
       | "conflict" ->
         incr conflicts;
         (match field_int j "len" with Some l -> len_sum := !len_sum + l | None -> ());
         (match (field_int j "lvl", field_int j "bt") with
          | Some lvl, Some bt ->
            let d = lvl - bt in
            bt_sum := !bt_sum + d;
            if d <= 2 then incr local
          | _ -> ())
       | "restart" -> incr restarts
       | "done" -> result := field_str j "result"
       | "heartbeat" -> incr heartbeats
       | "recorder" ->
         (match field_int j "dropped" with
          | Some d when d > 0 ->
            warn
              "flight-recorder dump: %d event(s) dropped (ring capacity %d) — \
               the earliest part of the run is missing"
              d
              (Option.value (field_int j "cap") ~default:0)
          | _ -> ())
       | "icp_stall" ->
         let v = Option.value (field_int j "var") ~default:(-1) in
         let info =
           match Hashtbl.find_opt stall_tbl v with
           | Some i ->
             {
               i with
               si_reports = i.si_reports + 1;
               si_max_streak =
                 max i.si_max_streak
                   (Option.value (field_int j "streak") ~default:0);
               si_last_width = Option.value (field_int j "width") ~default:0;
             }
           | None ->
             {
               si_var = v;
               si_name = Option.value (field_str j "name")
                   ~default:(Printf.sprintf "v%d" v);
               si_desc = Option.value (field_str j "desc")
                   ~default:"(unknown constraint)";
               si_reports = 1;
               si_max_streak = Option.value (field_int j "streak") ~default:0;
               si_last_width = Option.value (field_int j "width") ~default:0;
             }
         in
         Hashtbl.replace stall_tbl v info
       | "split" ->
         incr n_splits;
         let v = Option.value (field_int j "var") ~default:(-1) in
         Hashtbl.replace split_tbl v
           (1 + Option.value (Hashtbl.find_opt split_tbl v) ~default:0)
       | "hot_constraints" ->
         (match Option.bind (Json.member "top" j) Json.get_list with
          | Some l -> hot_constraints := List.map hot_constr_of_json l
          | None -> ())
       | "hot_vars" ->
         (match Option.bind (Json.member "top" j) Json.get_list with
          | Some l -> hot_vars := List.map hot_var_of_json l
          | None -> ())
       | "phases" ->
         (match Json.get_obj (Option.value (Json.member "self_s" j) ~default:Json.Null) with
          | Some fields ->
            phases :=
              List.filter_map
                (fun (n, v) -> Option.map (fun f -> (n, f)) (Json.get_float v))
                fields
          | None -> ())
       | _ -> ())
  in
  String.split_on_char '\n' text
  |> List.iter (fun line -> if String.trim line <> "" then handle line);
  if !n_bad > 0 then warn "%d malformed line(s) skipped" !n_bad;
  if !first then warn "trace is empty";
  let stalls =
    Hashtbl.fold (fun _ i acc -> i :: acc) stall_tbl []
    |> List.sort (fun a b -> compare b.si_max_streak a.si_max_streak)
  in
  let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let split_stalled =
    Hashtbl.fold
      (fun v _ acc -> if Hashtbl.mem stall_tbl v then acc + 1 else acc)
      split_tbl 0
  in
  {
    pf_schema = !schema;
    pf_version = !version;
    pf_warnings = List.rev !warnings;
    pf_events = sorted_counts events;
    pf_wall = !wall;
    pf_result = !result;
    pf_decisions = sorted_counts decisions;
    pf_conflicts = !conflicts;
    pf_learned_len_mean = fdiv !len_sum !conflicts;
    pf_backjump_mean = fdiv !bt_sum !conflicts;
    pf_local_backjumps = !local;
    pf_restarts = !restarts;
    pf_splits = !n_splits;
    pf_split_vars = Hashtbl.length split_tbl;
    pf_split_stalled = split_stalled;
    pf_heartbeats = !heartbeats;
    pf_stalls = stalls;
    pf_hot_constraints = !hot_constraints;
    pf_hot_vars = !hot_vars;
    pf_phases = !phases;
    pf_diagnosis =
      diagnose ~result:!result ~stalls ~phases:!phases ~conflicts:!conflicts
        ~local:!local ~bt_mean:(fdiv !bt_sum !conflicts) ~restarts:!restarts
        ~decisions:!n_decisions ~splits:!n_splits
        ~split_vars:(Hashtbl.length split_tbl) ~split_stalled;
  }

let profile_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> profile_string (really_input_string ic (in_channel_length ic)))

let print_profile fmt p =
  let section name = Format.fprintf fmt "@.%s@." name in
  Format.fprintf fmt "trace profile (%s)@."
    (match p.pf_schema with
     | Some s -> s
     | None -> "headerless; assuming rtlsat.trace/1");
  List.iter (fun w -> Format.fprintf fmt "warning: %s@." w) p.pf_warnings;
  Format.fprintf fmt "wall clock covered: %.3fs   result: %s@." p.pf_wall
    (Option.value p.pf_result ~default:"(no done event)");
  if p.pf_heartbeats > 0 then
    Format.fprintf fmt "telemetry: %d heartbeat(s) over %.3fs@."
      p.pf_heartbeats p.pf_wall;
  section "events:";
  List.iter
    (fun (ev, n) -> Format.fprintf fmt "  %-18s %8d@." ev n)
    p.pf_events;
  if p.pf_decisions <> [] then begin
    section "decisions by kind:";
    List.iter
      (fun (k, n) -> Format.fprintf fmt "  %-18s %8d@." k n)
      p.pf_decisions
  end;
  if p.pf_conflicts > 0 then begin
    section "conflict locality:";
    Format.fprintf fmt
      "  %d conflicts, mean learned length %.1f, mean backjump %.1f levels, \
       %d (%.0f%%) backjump <= 2 levels@."
      p.pf_conflicts p.pf_learned_len_mean p.pf_backjump_mean
      p.pf_local_backjumps
      (100.0 *. float_of_int p.pf_local_backjumps
       /. float_of_int p.pf_conflicts);
    Format.fprintf fmt "  restarts: %d@." p.pf_restarts
  end;
  if p.pf_phases <> [] then begin
    section "phase self-times:";
    List.iter
      (fun (n, v) -> if v > 0.0 then Format.fprintf fmt "  %-18s %8.3fs@." n v)
      p.pf_phases
  end;
  if p.pf_splits > 0 then begin
    section "split/stall interplay:";
    Format.fprintf fmt
      "  %d interval-split decision(s) over %d variable(s); %d split \
       variable(s) also reported as stalled@."
      p.pf_splits p.pf_split_vars p.pf_split_stalled
  end;
  if p.pf_stalls <> [] then begin
    section "detected ICP stalls:";
    List.iter
      (fun s ->
         Format.fprintf fmt
           "  var '%s': %d report(s), max streak %d tiny narrowings, last \
            width %d@.    driving constraint: %s@."
           s.si_name s.si_reports s.si_max_streak s.si_last_width s.si_desc)
      p.pf_stalls
  end;
  if p.pf_hot_constraints <> [] then begin
    section "hot constraints (by propagation time):";
    List.iter
      (fun h ->
         Format.fprintf fmt
           "  #%-5d %8.3fs  %7d wakeups  %7d narrows  %10d units  %s@."
           h.hc_id h.hc_time h.hc_wakeups h.hc_narrows h.hc_shaved h.hc_desc)
      p.pf_hot_constraints
  end;
  if p.pf_hot_vars <> [] then begin
    section "hot variables (by narrowing count):";
    List.iter
      (fun h ->
         Format.fprintf fmt "  %-24s %7d narrows  %12d units shaved@."
           h.hv_name h.hv_narrows h.hv_shaved)
      p.pf_hot_vars
  end;
  section "diagnosis:";
  List.iteri
    (fun i d ->
       Format.fprintf fmt "  %d. @[%a@]@." (i + 1) Format.pp_print_text d)
    p.pf_diagnosis
