(* Flight recorder: a bounded ring buffer of trace events that is
   always on (even with --trace off) and cheap enough to leave
   attached to every CLI solve.  Nothing is rendered while the solver
   runs.  The search's per-decision and per-conflict events are flat:
   a kind and three ints in slot arrays, so recording one allocates
   nothing (but the ring's growth, a few times per run).  The rare events keep the field list their caller
   built.  The summary tables are markers, built only when a dump
   renders them.

   The ring has one writer, the solving domain, and one other reader:
   the SIGUSR1 dump, which runs on that same domain at a safepoint of
   the interrupted code.  No lock is needed (and a mutex would be
   wrong: OCaml mutexes are error-checking, so a handler that lands
   inside a locked [record] and re-locks in [dump] fails with
   "Resource deadlock avoided").  A record is consistent at every
   safepoint because its only allocation, the ring's growth, comes
   before its first store (see [grow]), and nothing after it allocates
   or polls: its arguments are built before the call, and the slot
   stores and the [total] increment that publishes them are plain
   stores.  A handler sees either none of the event or all of it. *)

type decision = Activity | Structural | Random | Assumption | Split

let decision_code = function
  | Activity -> 0
  | Structural -> 1
  | Random -> 2
  | Assumption -> 3
  | Split -> 4

(* by [decision_code] *)
let decision_names = [| "activity"; "structural"; "random"; "assumption"; "split" |]

type kind =
  | Generic
  | Decide
  | Conflict
  | Learn
  | Static_learn
  | Restart
  | Phases
  | Hot_constraints
  | Hot_vars

type entry = {
  e_t : float;  (* seconds since the owning handle's t0 *)
  e_ev : string;
  e_fields : (string * Json.t) list;
}

(* The slot arrays start small and double, up to [cap], as the ring
   fills: most armed runs record a handful of events and never pay for
   the whole ring. *)
type t = {
  cap : int;
  mutable kinds : kind array;
  mutable times : float array;
  mutable ints : int array;  (* three per slot *)
  mutable names : string array;  (* [Generic] slots: the event name ... *)
  mutable fields : (string * Json.t) list array;  (* ... and its fields *)
  mutable total : int;  (* events ever recorded *)
}

let default_cap = 4096
let first_size = 64

let create ?(cap = default_cap) () =
  if cap <= 0 then invalid_arg "Recorder.create: cap must be positive";
  let n = min cap first_size in
  {
    cap;
    kinds = Array.make n Generic;
    times = Array.make n 0.0;
    ints = Array.make (3 * n) 0;
    names = Array.make n "";
    fields = Array.make n [];
    total = 0;
  }

(* Before the ring first wraps, slot [i] is event [i]; so when the
   next slot is past the arrays, copying them into arrays twice as long
   keeps every slot where it was.  The copies are built before any
   field changes and the fields are swapped with plain stores, so a
   dump at a safepoint in here reads the old arrays, all consistent. *)
let grow t =
  let m = min t.cap (2 * Array.length t.kinds) in
  let extend a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let kinds = extend t.kinds m Generic and times = extend t.times m 0.0 in
  let ints = extend t.ints (3 * m) 0 in
  let names = extend t.names m "" and fields = extend t.fields m [] in
  t.kinds <- kinds;
  t.times <- times;
  t.ints <- ints;
  t.names <- names;
  t.fields <- fields

let slot t =
  let i = t.total mod t.cap in
  if i >= Array.length t.kinds then grow t;
  i

let record t ~t_rel ~ev fields =
  let i = slot t in
  t.kinds.(i) <- Generic;
  t.times.(i) <- t_rel;
  t.names.(i) <- ev;
  t.fields.(i) <- fields;
  t.total <- t.total + 1

let record_flat t ~t_rel kind a b c =
  let i = slot t in
  t.kinds.(i) <- kind;
  t.times.(i) <- t_rel;
  t.ints.(3 * i) <- a;
  t.ints.((3 * i) + 1) <- b;
  t.ints.((3 * i) + 2) <- c;
  (* the slot's old fields, if any, are no longer reachable from it *)
  t.fields.(i) <- [];
  t.total <- t.total + 1

let summary_name = function
  | Phases -> "phases"
  | Hot_constraints -> "hot_constraints"
  | Hot_vars -> "hot_vars"
  | Generic | Decide | Conflict | Learn | Static_learn | Restart ->
    invalid_arg "Recorder.summary_name: not a summary marker"

let render kind a b c =
  match kind with
  | Decide ->
    ( "decide",
      [ ("kind", Json.Str decision_names.(a)); ("lvl", Json.Int b);
        ("var", Json.Int c) ] )
  | Conflict ->
    ("conflict", [ ("lvl", Json.Int a); ("bt", Json.Int b); ("len", Json.Int c) ])
  | Learn -> ("learn", [ ("cause", Json.Str "conflict"); ("len", Json.Int a) ])
  | Static_learn ->
    ( "learn",
      [ ("cause", Json.Str "static"); ("len", Json.Int a);
        ("trigger_var", Json.Int b) ] )
  | Restart -> ("restart", [ ("num", Json.Int a); ("conflicts", Json.Int b) ])
  | Generic | Phases | Hot_constraints | Hot_vars ->
    invalid_arg "Recorder.render: not a flat event"

let recorded t = min t.total t.cap
let dropped t = max 0 (t.total - t.cap)
let is_empty t = t.total = 0

let is_marker = function
  | Phases | Hot_constraints | Hot_vars -> true
  | Generic | Decide | Conflict | Learn | Static_learn | Restart -> false

(* the buffered events oldest-first, rendered; [summary] gives a
   marker's fields.  A marker is built from the handle as it is at the
   dump, so only the newest of each kind is kept: an older one (a
   sweep's earlier bound) would carry the same tables under the wrong
   bound. *)
let entries ?(summary = fun _ -> []) t =
  let n = recorded t in
  let first = t.total - n in
  let at j = (first + j) mod t.cap in
  let newest = ref [] and kept = ref [] in
  for j = n - 1 downto 0 do
    let k = t.kinds.(at j) in
    if not (is_marker k && List.mem k !newest) then begin
      if is_marker k then newest := k :: !newest;
      kept := at j :: !kept
    end
  done;
  Array.of_list
    (List.map
       (fun i ->
          let e_t = t.times.(i) in
          match t.kinds.(i) with
          | Generic -> { e_t; e_ev = t.names.(i); e_fields = t.fields.(i) }
          | (Phases | Hot_constraints | Hot_vars) as k ->
            { e_t; e_ev = summary_name k; e_fields = summary k }
          | k ->
            let e_ev, e_fields =
              render k t.ints.(3 * i) t.ints.((3 * i) + 1) t.ints.((3 * i) + 2)
            in
            { e_t; e_ev; e_fields })
       !kept)

let iter t f = Array.iter f (entries t)

let dump ?summary t path =
  let entries = entries ?summary t in
  let n = Array.length entries in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       let buf = Buffer.create 256 in
       let line ev t fields =
         Buffer.clear buf;
         Json.to_buffer buf
           (Json.Obj (("ev", Json.Str ev) :: ("t", Json.Float t) :: fields));
         Buffer.add_char buf '\n';
         Buffer.output_buffer oc buf
       in
       (* the synthetic header makes the dump a well-formed trace that
          [rtlsat profile] reads with no special casing *)
       line "header" 0.0 [ ("schema", Json.Str Trace.schema) ];
       let last_t = if n = 0 then 0.0 else entries.(n - 1).e_t in
       line "recorder" last_t
         [
           ("recorded", Json.Int n);
           ("dropped", Json.Int (dropped t));
           ("cap", Json.Int t.cap);
         ];
       Array.iter (fun e -> line e.e_ev e.e_t e.e_fields) entries)
