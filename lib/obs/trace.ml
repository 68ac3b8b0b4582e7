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
    let rel = Mono.now () -. t.t0 in
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
      t0 = Mono.now ();
      n_events = 0;
      closed = false;
    }
  in
  (* schema header — always the first line, so readers can reject a
     trace they do not know before misreading it *)
  emit t ~ev:"header" [ ("schema", Json.Str schema) ];
  t

let events t = t.n_events

let close t =
  if not t.closed then begin
    t.closed <- true;
    flush t.oc;
    close_out t.oc
  end

(* ---- reading ---- *)

let versions = [ 7; 8 ]

exception Unsupported_schema of string

let schema_version tag =
  let prefix = "rtlsat.trace/" in
  let plen = String.length prefix in
  if String.length tag > plen && String.sub tag 0 plen = prefix then
    int_of_string_opt (String.sub tag plen (String.length tag - plen))
  else None

let unsupported what =
  raise
    (Unsupported_schema
       (Printf.sprintf "%s: this build reads only %s" what
          (String.concat " and "
             (List.map (Printf.sprintf "rtlsat.trace/%d") versions))))

(* the schema tag of a first line, or [Unsupported_schema] *)
let check_header j =
  match
    ( Option.bind (Json.member "ev" j) Json.get_string,
      Option.bind (Json.member "schema" j) Json.get_string )
  with
  | Some "header", Some tag ->
    (match schema_version tag with
     | Some v when List.mem v versions -> tag
     | _ -> unsupported (Printf.sprintf "unsupported trace schema %S" tag))
  | _ -> unsupported "no rtlsat.trace header on the first line"

type reader = {
  on_event : Json.t -> unit;
  pending : Buffer.t;  (* the bytes after the last newline *)
  mutable header : string option;
  mutable malformed : int;
}

let reader on_event =
  { on_event; pending = Buffer.create 256; header = None; malformed = 0 }

let line r s =
  if String.trim s <> "" then
    match Json.of_string s with
    | exception Json.Parse_error _ ->
      if r.header = None then unsupported "the first line is not JSON"
      else r.malformed <- r.malformed + 1
    | j ->
      if r.header = None then r.header <- Some (check_header j);
      r.on_event j

let feed r chunk =
  let n = String.length chunk in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if chunk.[i] = '\n' then begin
      let s = String.sub chunk !start (i - !start) in
      if Buffer.length r.pending = 0 then line r s
      else begin
        Buffer.add_string r.pending s;
        let s = Buffer.contents r.pending in
        Buffer.clear r.pending;
        line r s
      end;
      start := i + 1
    end
  done;
  Buffer.add_substring r.pending chunk !start (n - !start)

let read_file r path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let buf = Bytes.create 65536 in
       let rec loop () =
         let k = input ic buf 0 (Bytes.length buf) in
         if k > 0 then begin
           feed r (Bytes.sub_string buf 0 k);
           loop ()
         end
       in
       loop ())

let header r = r.header
let malformed r = r.malformed
let pending r = Buffer.length r.pending > 0
