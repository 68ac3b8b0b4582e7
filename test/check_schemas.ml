(* Schema sweep over the committed trace fixtures: each
   fixtures/trace_v<N>.jsonl must read through Trace.reader with a
   header of exactly the version its filename declares — fixtures named
   *unsupported* must instead be rejected.  Run by the runtest alias so
   a schema bump that forgets a committed fixture fails the build. *)

module Trace = Rtlsat_obs.Trace

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

(* "trace_v7.jsonl" -> Some 7 *)
let declared_version path =
  let base = Filename.remove_extension (Filename.basename path) in
  let prefix = "trace_v" in
  let plen = String.length prefix in
  if String.length base <= plen || String.sub base 0 plen <> prefix then None
  else
    let rest = String.sub base plen (String.length base - plen) in
    let n = ref 0 in
    while
      !n < String.length rest && rest.[!n] >= '0' && rest.[!n] <= '9'
    do
      incr n
    done;
    if !n = 0 then None else int_of_string_opt (String.sub rest 0 !n)

let contains_sub s part =
  let n = String.length s and k = String.length part in
  let rec find i = i + k <= n && (String.sub s i k = part || find (i + 1)) in
  find 0

let check_trace path =
  let version =
    match declared_version path with
    | Some v -> v
    | None -> fail "%s: cannot read a trace version from the filename" path
  in
  let r = Trace.reader ignore in
  if contains_sub (Filename.basename path) "unsupported" then
    match Trace.read_file r path with
    | () -> fail "%s: unsupported schema version %d accepted" path version
    | exception Trace.Unsupported_schema _ ->
      Printf.printf "OK: %s (v%d rejected as unsupported)\n" path version
  else begin
    Trace.read_file r path;
    let read = Option.bind (Trace.header r) Trace.schema_version in
    if read <> Some version then
      fail "%s: filename says v%d, header says %s" path version
        (Option.value (Trace.header r) ~default:"nothing");
    if Trace.malformed r > 0 || Trace.pending r then
      fail "%s: malformed or unterminated lines" path;
    Printf.printf "OK: %s (rtlsat.trace/%d)\n" path version
  end

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then fail "usage: check_schemas TRACE.jsonl...";
  List.iter check_trace files
