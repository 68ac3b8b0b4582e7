(* Flight recorder: a bounded ring buffer of trace events that is
   always on (even with --trace off) and cheap enough to leave
   attached to every CLI solve.  Events are stored unrendered — the
   JSON text is only produced at dump time, so the per-event cost is
   one array store and the field list the caller already built.

   The ring has one writer, the solving domain, and one other reader:
   the SIGUSR1 dump, which runs on that same domain at a safepoint of
   the interrupted code.  No lock is needed (and a mutex would be
   wrong: OCaml mutexes are error-checking, so a handler that lands
   inside a locked [record] and re-locks in [snapshot] fails with
   "Resource deadlock avoided").  A [record] is consistent at every
   safepoint because its one allocation, the entry itself, happens
   before the ring store and the [total] increment, and those two
   neither allocate nor poll.  A handler sees either none of the
   event or all of it. *)

type entry = {
  e_t : float;  (* seconds since the owning handle's t0 *)
  e_ev : string;
  e_fields : (string * Json.t) list;
}

type t = {
  cap : int;
  ring : entry array;
  mutable total : int;  (* events ever recorded *)
}

let default_cap = 4096

let dummy = { e_t = 0.0; e_ev = ""; e_fields = [] }

let create ?(cap = default_cap) () =
  if cap <= 0 then invalid_arg "Recorder.create: cap must be positive";
  { cap; ring = Array.make cap dummy; total = 0 }

let record t ~t_rel ~ev fields =
  let e = { e_t = t_rel; e_ev = ev; e_fields = fields } in
  t.ring.(t.total mod t.cap) <- e;
  t.total <- t.total + 1

let recorded t = min t.total t.cap
let dropped t = max 0 (t.total - t.cap)
let is_empty t = t.total = 0

(* copy the ring out first, so a callback that records more events
   cannot disturb the walk *)
let snapshot t =
  let total = t.total in
  let n = min total t.cap in
  let first = total - n in
  (Array.init n (fun i -> t.ring.((first + i) mod t.cap)), total)

let iter t f =
  let entries, _ = snapshot t in
  Array.iter f entries

let dump t path =
  let entries, total = snapshot t in
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
           ("dropped", Json.Int (max 0 (total - n)));
           ("cap", Json.Int t.cap);
         ];
       Array.iter (fun e -> line e.e_ev e.e_t e.e_fields) entries)
