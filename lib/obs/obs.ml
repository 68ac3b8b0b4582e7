type phase =
  | Encode
  | Static_learn
  | Simplify
  | Bcp
  | Icp
  | Conflict_analysis
  | Justification
  | Final_check
  | Fme

let n_phases = 9

let phase_index = function
  | Encode -> 0
  | Static_learn -> 1
  | Simplify -> 2
  | Bcp -> 3
  | Icp -> 4
  | Conflict_analysis -> 5
  | Justification -> 6
  | Final_check -> 7
  | Fme -> 8

let phase_name = function
  | Encode -> "encode"
  | Static_learn -> "static_learn"
  | Simplify -> "simplify"
  | Bcp -> "bcp"
  | Icp -> "icp"
  | Conflict_analysis -> "conflict_analysis"
  | Justification -> "justification"
  | Final_check -> "final_check"
  | Fme -> "fme"

let all_phases =
  [ Encode; Static_learn; Simplify; Bcp; Icp; Conflict_analysis; Justification;
    Final_check; Fme ]

type progress = {
  p_interval : float;
  mutable p_last : float;
  mutable p_decisions : int;
  mutable p_conflicts : int;
}

type t = {
  enabled : bool;
  self : float array;
  calls : int array;
  alloc : float array;
  mutable stack : int list;
  mutable mark : float;
  mutable alloc_mark : float;
  mutable prop_entries : int;
  prop_sampled : float array;
  learned_len : Hist.t;
  backjump : Hist.t;
  interval_width : Hist.t;
  counters : (string, int ref) Hashtbl.t;
  trace : Trace.t option;
  recorder : Recorder.t option;
  heartbeat : Heartbeat.t option;
  mutable hb_context : (string * Json.t) list;
  progress : progress option;
  mutable forensics : Forensics.t option;
  t0 : float;
  gc0 : Gc.stat;
  gc0_minor : float;
}

(* words allocated so far, as seen by the minor heap's young pointer.
   [Gc.minor_words] is a single primitive read; the [Gc.quick_stat]
   needed for the major/promoted correction walks per-domain state and
   costs ~1.3 µs, which at span granularity (bcp/icp enter+exit per
   propagation batch, ~10^6 calls on a b13-class solve) multiplied
   into a 4-6x wall-clock slowdown of every instrumented run — so the
   hot path settles for minor-heap accounting.  Blocks above the
   minor-alloc cutoff go straight to the major heap and are missed
   here; the snapshot's [mem] object still reports the full picture
   from one end-of-run [quick_stat]. *)
let allocated_words () = Gc.minor_words ()

let heap_mb_of_words words =
  float_of_int words *. float_of_int (Sys.word_size / 8) /. 1.0e6

let make ~enabled ~trace ~recorder ~heartbeat ~progress =
  let now = Mono.now () in
  let gc0 = Gc.quick_stat () in
  {
    enabled;
    self = Array.make n_phases 0.0;
    calls = Array.make n_phases 0;
    alloc = Array.make n_phases 0.0;
    stack = [];
    mark = now;
    alloc_mark = allocated_words ();
    prop_entries = 0;
    prop_sampled = [| 0.0; 0.0 |];
    learned_len = Hist.create [| 1; 2; 4; 8; 16; 32; 64; 128 |];
    backjump = Hist.create [| 1; 2; 4; 8; 16; 32; 64; 128 |];
    interval_width = Hist.create [| 0; 1; 3; 7; 15; 63; 255; 1023; 65535 |];
    counters = Hashtbl.create 16;
    trace;
    recorder;
    heartbeat;
    hb_context = [];
    progress;
    forensics = None;
    t0 = now;
    gc0;
    gc0_minor = Gc.minor_words ();
  }

let disabled =
  make ~enabled:false ~trace:None ~recorder:None ~heartbeat:None ~progress:None

let create ?trace ?recorder ?heartbeat_every ?progress_every () =
  let progress =
    Option.map
      (fun iv ->
         { p_interval = iv; p_last = Mono.now (); p_decisions = 0; p_conflicts = 0 })
      progress_every
  in
  let heartbeat = Option.map (fun iv -> Heartbeat.create ~every:iv) heartbeat_every in
  make ~enabled:true ~trace ~recorder ~heartbeat ~progress

(* the flight recorder is an event sink exactly like the trace file:
   either one makes event construction worthwhile *)
let tracing t = t.enabled && (t.trace <> None || t.recorder <> None)

(* ---- spans: self-time accounting over an explicit phase stack ---- *)

(* charge the innermost open phase up to now and open phase [i] *)
let push t i =
  let now = Mono.now () in
  let words = allocated_words () in
  (match t.stack with
   | p :: _ ->
     t.self.(p) <- t.self.(p) +. (now -. t.mark);
     t.alloc.(p) <- t.alloc.(p) +. (words -. t.alloc_mark)
   | [] -> ());
  t.stack <- i :: t.stack;
  t.mark <- now;
  t.alloc_mark <- words

let span_enter t ph =
  if t.enabled then begin
    let i = phase_index ph in
    push t i;
    t.calls.(i) <- t.calls.(i) + 1
  end

let span_exit t ph =
  if t.enabled then begin
    let i = phase_index ph in
    match t.stack with
    | p :: rest when p = i ->
      let now = Mono.now () in
      let words = allocated_words () in
      t.self.(p) <- t.self.(p) +. (now -. t.mark);
      t.alloc.(p) <- t.alloc.(p) +. (words -. t.alloc_mark);
      t.stack <- rest;
      t.mark <- now;
      t.alloc_mark <- words
    | _ -> () (* unbalanced (exception unwound past an exit): ignore *)
  end

(* ---- propagation runs: one span, BCP/ICP split by sampling ---- *)

(* One trail entry in [prop_sample_period], the first one included, is
   timed on its clause half and its constraint half; the cumulative
   ratio of those sampled times splits each run's exact elapsed time
   and allocation between [Bcp] and [Icp]. *)
let prop_sample_period = 16

(* the run's span sits on the stack as [Bcp]; its calls are counted
   at the exit *)
let prop_enter t = if t.enabled then push t (phase_index Bcp)

let prop_sample_due t =
  if t.enabled then begin
    let n = t.prop_entries in
    t.prop_entries <- n + 1;
    n land (prop_sample_period - 1) = 0
  end
  else false

let prop_sample t ~bcp ~icp =
  if t.enabled then begin
    t.prop_sampled.(0) <- t.prop_sampled.(0) +. bcp;
    t.prop_sampled.(1) <- t.prop_sampled.(1) +. icp
  end

let prop_exit t ~bcp_calls ~icp_calls =
  let b = phase_index Bcp and i = phase_index Icp in
  if t.enabled then
    match t.stack with
    | p :: rest when p = b ->
      let now = Mono.now () in
      let words = allocated_words () in
      let sb = t.prop_sampled.(0) and si = t.prop_sampled.(1) in
      let r = if sb +. si > 0.0 then sb /. (sb +. si) else 0.5 in
      let dt = now -. t.mark and dw = words -. t.alloc_mark in
      t.self.(b) <- t.self.(b) +. (r *. dt);
      t.self.(i) <- t.self.(i) +. ((1.0 -. r) *. dt);
      t.alloc.(b) <- t.alloc.(b) +. (r *. dw);
      t.alloc.(i) <- t.alloc.(i) +. ((1.0 -. r) *. dw);
      t.calls.(b) <- t.calls.(b) + bcp_calls;
      t.calls.(i) <- t.calls.(i) + icp_calls;
      t.stack <- rest;
      t.mark <- now;
      t.alloc_mark <- words
    | _ -> ()

let span t ph f =
  if not t.enabled then f ()
  else begin
    span_enter t ph;
    match f () with
    | v ->
      span_exit t ph;
      v
    | exception e ->
      (* unwind any nested spans the exception skipped, then exit *)
      let i = phase_index ph in
      while (match t.stack with p :: _ -> p <> i | [] -> false) do
        t.stack <- List.tl t.stack
      done;
      span_exit t ph;
      raise e
  end

(* ---- counters ---- *)

let incr t name =
  if t.enabled then
    match Hashtbl.find_opt t.counters name with
    | Some r -> Stdlib.incr r
    | None -> Hashtbl.replace t.counters name (ref 1)

let add t name k =
  if t.enabled then
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + k
    | None -> Hashtbl.replace t.counters name (ref k)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* ---- histograms ---- *)

let observe_learned_len t len = if t.enabled then Hist.observe t.learned_len len
let observe_backjump t d = if t.enabled then Hist.observe t.backjump d

(* ---- events ---- *)

(* every event goes to both attached sinks: the trace file (if any)
   and the flight-recorder ring (if any) *)
let emit_to_sinks t ev fields =
  (match t.trace with Some tr -> Trace.emit tr ~ev fields | None -> ());
  match t.recorder with
  | Some r -> Recorder.record r ~t_rel:(Mono.now () -. t.t0) ~ev fields
  | None -> ()

let event t ev fields = if t.enabled then emit_to_sinks t ev fields

(* ---- forensics: attribution and stall diagnosis ---- *)

let attach_forensics t ~nvars ~nconstrs ~var_name ~constr_desc =
  if t.enabled then begin
    let f = Forensics.create ~nvars ~nconstrs in
    Forensics.set_names f ~var_name ~constr_desc;
    t.forensics <- Some f
  end

let forensics t = if t.enabled then t.forensics else None

let note_narrow t ~var ~shaved ~width =
  match t.forensics with
  | None -> ()
  | Some f ->
    (match Forensics.note_narrow f ~var ~shaved ~width with
     | None -> ()
     | Some st ->
       (match Hashtbl.find_opt t.counters "icp.stalls" with
        | Some r -> Stdlib.incr r
        | None -> Hashtbl.replace t.counters "icp.stalls" (ref 1));
       if tracing t then
         emit_to_sinks t "icp_stall"
           [
             ("var", Json.Int st.Forensics.st_var);
             ("name", Json.Str (Forensics.var_name f st.Forensics.st_var));
             ("constr", Json.Int st.Forensics.st_constr);
             ("desc", Json.Str (Forensics.constr_desc f st.Forensics.st_constr));
             ("streak", Json.Int st.Forensics.st_streak);
             ("shaved", Json.Int st.Forensics.st_shaved);
             ("width", Json.Int st.Forensics.st_width);
           ])

let note_split t ~var =
  match t.forensics with Some f -> Forensics.note_split f ~var | None -> ()

let hot_constr_json (h : Forensics.hot_constr) =
  Json.Obj
    [
      ("constr", Json.Int h.Forensics.hc_id);
      ("desc", Json.Str h.Forensics.hc_desc);
      ("wakeups", Json.Int h.Forensics.hc_wakeups);
      ("narrows", Json.Int h.Forensics.hc_narrows);
      ("shaved", Json.Int h.Forensics.hc_shaved);
      ("time_s", Json.Float h.Forensics.hc_time);
    ]

let hot_var_json (h : Forensics.hot_var) =
  Json.Obj
    [
      ("var", Json.Int h.Forensics.hv_id);
      ("name", Json.Str h.Forensics.hv_name);
      ("narrows", Json.Int h.Forensics.hv_narrows);
      ("shaved", Json.Int h.Forensics.hv_shaved);
    ]

let top_k = 10

let emit_summary_events t =
  if tracing t then begin
    emit_to_sinks t "phases"
      [
        ( "self_s",
          Json.Obj
            (List.map
               (fun ph -> (phase_name ph, Json.Float t.self.(phase_index ph)))
               all_phases) );
      ];
    match t.forensics with
    | None -> ()
    | Some f ->
      emit_to_sinks t "hot_constraints"
        [
          ( "top",
            Json.Arr
              (List.map hot_constr_json (Forensics.top_constraints f ~k:top_k)) );
        ];
      emit_to_sinks t "hot_vars"
        [
          ( "top",
            Json.Arr (List.map hot_var_json (Forensics.top_vars f ~k:top_k)) );
        ]
  end

(* ---- progress ---- *)

let progress_tick t ~decisions ~conflicts ~learned ~depth =
  if t.enabled then
    match t.progress with
    | None -> ()
    | Some p ->
      let now = Mono.now () in
      let dt = now -. p.p_last in
      if dt >= p.p_interval then begin
        let rate cur last = float_of_int (cur - last) /. dt in
        Printf.eprintf
          "[obs] %7.1fs  decisions=%d (%.0f/s)  conflicts=%d (%.0f/s)  learned-db=%d  depth=%d\n%!"
          (now -. t.t0) decisions
          (rate decisions p.p_decisions)
          conflicts
          (rate conflicts p.p_conflicts)
          learned depth;
        p.p_last <- now;
        p.p_decisions <- decisions;
        p.p_conflicts <- conflicts
      end

(* ---- heartbeats ---- *)

let set_context t fields = if t.enabled then t.hb_context <- fields

let heartbeat_tick t ~decisions ~conflicts ~propagations ~splits ~lvl =
  if t.enabled then
    match t.heartbeat with
    | None -> ()
    | Some hb ->
      let now = Mono.now () in
      if Heartbeat.due hb now then begin
        let stalls, shaved =
          match t.forensics with
          | Some f -> (Forensics.stalls f, Forensics.total_shaved f)
          | None -> (0, 0)
        in
        let fields =
          Heartbeat.beat hb ~now ~now_rel:(now -. t.t0) ~decisions ~conflicts
            ~propagations ~splits ~stalls ~shaved ~lvl
        in
        (* trace/7: live memory picture on every beat.  Instrumented
           arm only — the beat is already rate-limited, so the extra
           [Gc.quick_stat] is amortised away *)
        let q = Gc.quick_stat () in
        let gc_fields =
          [
            ("major_words", Json.Float q.Gc.major_words);
            ("heap_mb", Json.Float (heap_mb_of_words q.Gc.heap_words));
            ("compactions", Json.Int q.Gc.compactions);
          ]
        in
        emit_to_sinks t "heartbeat" (fields @ gc_fields @ t.hb_context)
      end

(* ---- flight recorder ---- *)

let flight_dump t path =
  match t.recorder with
  | Some r when not (Recorder.is_empty r) ->
    Recorder.dump r path;
    true
  | _ -> false

let close t = match t.trace with Some tr -> Trace.close tr | None -> ()

(* ---- snapshots ---- *)

type mem = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

type snapshot = {
  wall : float;
  phases : (string * float * int) list;
  phase_alloc : (string * float) list;
  histograms : (string * Hist.summary) list;
  counter_values : (string * int) list;
  trace_events : int;
  stalls : int;
  splits : int;
  hot_constraints : Forensics.hot_constr list;
  hot_vars : Forensics.hot_var list;
  mem : mem option;
}

let snapshot t =
  {
    wall = (if t.enabled then Mono.now () -. t.t0 else 0.0);
    mem =
      (if not t.enabled then None
       else begin
         (* GC deltas over the handle's lifetime; heap sizes absolute *)
         let q = Gc.quick_stat () in
         Some
           {
             minor_words = Gc.minor_words () -. t.gc0_minor;
             major_words = q.Gc.major_words -. t.gc0.Gc.major_words;
             promoted_words = q.Gc.promoted_words -. t.gc0.Gc.promoted_words;
             minor_collections =
               q.Gc.minor_collections - t.gc0.Gc.minor_collections;
             major_collections =
               q.Gc.major_collections - t.gc0.Gc.major_collections;
             compactions = q.Gc.compactions - t.gc0.Gc.compactions;
             heap_words = q.Gc.heap_words;
             top_heap_words = q.Gc.top_heap_words;
           }
       end);
    phase_alloc =
      List.map
        (fun ph -> (phase_name ph, t.alloc.(phase_index ph)))
        all_phases;
    stalls = (match t.forensics with Some f -> Forensics.stalls f | None -> 0);
    splits = (match t.forensics with Some f -> Forensics.splits f | None -> 0);
    hot_constraints =
      (match t.forensics with
       | Some f -> Forensics.top_constraints f ~k:top_k
       | None -> []);
    hot_vars =
      (match t.forensics with
       | Some f -> Forensics.top_vars f ~k:top_k
       | None -> []);
    phases =
      List.map
        (fun ph ->
           let i = phase_index ph in
           (phase_name ph, t.self.(i), t.calls.(i)))
        all_phases;
    histograms =
      [
        ("learned_clause_len", Hist.summary t.learned_len);
        ("backjump_distance", Hist.summary t.backjump);
        ("interval_width", Hist.summary t.interval_width);
      ];
    counter_values =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    trace_events = (match t.trace with Some tr -> Trace.events tr | None -> 0);
  }

let mem_json = function
  | None ->
    (* stable schema: a disabled handle still carries the object *)
    Json.Obj
      [
        ("minor_words", Json.Float 0.0);
        ("major_words", Json.Float 0.0);
        ("promoted_words", Json.Float 0.0);
        ("minor_collections", Json.Int 0);
        ("major_collections", Json.Int 0);
        ("compactions", Json.Int 0);
        ("heap_words", Json.Int 0);
        ("heap_mb", Json.Float 0.0);
        ("top_heap_words", Json.Int 0);
      ]
  | Some m ->
    Json.Obj
      [
        ("minor_words", Json.Float m.minor_words);
        ("major_words", Json.Float m.major_words);
        ("promoted_words", Json.Float m.promoted_words);
        ("minor_collections", Json.Int m.minor_collections);
        ("major_collections", Json.Int m.major_collections);
        ("compactions", Json.Int m.compactions);
        ("heap_words", Json.Int m.heap_words);
        ("heap_mb", Json.Float (heap_mb_of_words m.heap_words));
        ("top_heap_words", Json.Int m.top_heap_words);
      ]

let snapshot_json s =
  let alloc_of name =
    match List.assoc_opt name s.phase_alloc with Some w -> w | None -> 0.0
  in
  Json.Obj
    [
      ("wall_s", Json.Float s.wall);
      ( "phases",
        Json.Obj
          (List.map
             (fun (name, self, calls) ->
                ( name,
                  Json.Obj
                    [
                      ("self_s", Json.Float self);
                      ("calls", Json.Int calls);
                      ("alloc_w", Json.Float (alloc_of name));
                    ] ))
             s.phases) );
      ( "histograms",
        Json.Obj (List.map (fun (name, h) -> (name, Hist.summary_json h)) s.histograms) );
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) s.counter_values) );
      ("trace_events", Json.Int s.trace_events);
      ("mem", mem_json s.mem);
      ( "forensics",
        Json.Obj
          [
            ("stalls", Json.Int s.stalls);
            ("splits", Json.Int s.splits);
            ("hot_constraints", Json.Arr (List.map hot_constr_json s.hot_constraints));
            ("hot_vars", Json.Arr (List.map hot_var_json s.hot_vars));
          ] );
    ]
