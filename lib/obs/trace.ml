type t = {
  oc : out_channel;
  buf : Buffer.t;
  t0 : float;
  mutable n_events : int;
  mutable closed : bool;
}

let schema = "rtlsat.trace/8"

(* [emit] renders into a per-handle scratch buffer and writes to a
   buffered channel.  Only the solving code emits: the SIGUSR1 handler
   dumps the flight recorder and never touches a trace sink, so no
   event can interleave with another. *)
let emit t ~ev fields =
  if not t.closed then begin
    let rel = Unix.gettimeofday () -. t.t0 in
    Buffer.clear t.buf;
    Json.to_buffer t.buf
      (Json.Obj (("ev", Json.Str ev) :: ("t", Json.Float rel) :: fields));
    Buffer.add_char t.buf '\n';
    Buffer.output_buffer t.oc t.buf;
    t.n_events <- t.n_events + 1
  end

let to_file path =
  let t =
    {
      oc = open_out path;
      buf = Buffer.create 256;
      t0 = Unix.gettimeofday ();
      n_events = 0;
      closed = false;
    }
  in
  (* schema header — always the first line, so offline tooling can
     distinguish v2 traces from headerless v1 ones *)
  emit t ~ev:"header" [ ("schema", Json.Str schema) ];
  t

let events t = t.n_events

let close t =
  if not t.closed then begin
    t.closed <- true;
    flush t.oc;
    close_out t.oc
  end
