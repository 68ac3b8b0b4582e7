(* Schema sweep over the committed trace fixtures: each
   fixtures/trace_v<N>.jsonl must replay through the profiler at
   exactly the version its filename declares — fixtures named
   *unsupported* must instead be rejected.  Run by the runtest alias so
   a schema bump that forgets a committed fixture fails the build. *)

module Forensics = Rtlsat_obs.Forensics

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

(* "trace_v5.jsonl" -> Some 5 *)
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
  if contains_sub (Filename.basename path) "unsupported" then
    match Forensics.profile_file path with
    | _ -> fail "%s: unsupported schema version %d accepted" path version
    | exception Forensics.Unsupported_schema _ ->
      Printf.printf "OK: %s (v%d rejected as unsupported)\n" path version
  else
    let p = Forensics.profile_file path in
    if p.Forensics.pf_version <> version then
      fail "%s: filename says v%d, profiler dispatched v%d" path version
        p.Forensics.pf_version;
    Printf.printf "OK: %s (rtlsat.trace/%d)\n" path version

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then fail "usage: check_schemas TRACE.jsonl...";
  List.iter check_trace files
