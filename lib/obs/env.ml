type fingerprint = {
  git_rev : string;
  git_dirty : bool;
  hostname : string;
  ocaml_version : string;
  word_size : int;
}

(* First line of [git <args>]'s stdout, or [None] on any failure —
   missing binary, non-repo cwd, non-zero exit.  stderr is dropped so
   probing outside a repo stays silent. *)
let git_line args =
  try
    let ic = Unix.open_process_in (Printf.sprintf "git %s 2>/dev/null" args) in
    let line = try Some (input_line ic) with End_of_file -> None in
    (try
       while true do
         ignore (input_line ic)
       done
     with End_of_file -> ());
    match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None
  with _ -> None

let probe () =
  {
    git_rev =
      (match git_line "rev-parse --short=12 HEAD" with
       | Some rev when rev <> "" -> rev
       | _ -> "unknown");
    git_dirty =
      (* --porcelain prints one line per changed path; clean tree
         prints nothing.  A failed probe reads as clean. *)
      (match git_line "status --porcelain" with Some _ -> true | None -> false);
    hostname = (try Unix.gethostname () with _ -> "unknown");
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
  }

(* probed once and shared.  A plain [lazy] here raises
   CamlinternalLazy.Undefined when sibling domains force it
   concurrently, so the memoization is guarded by a mutex instead. *)
let cache = ref None
let cache_lock = Mutex.create ()

let fingerprint () =
  Mutex.lock cache_lock;
  let f =
    match !cache with
    | Some f -> f
    | None ->
        let f = probe () in
        cache := Some f;
        f
  in
  Mutex.unlock cache_lock;
  f

let fingerprint_json () =
  let f = fingerprint () in
  Json.Obj
    [
      ("git_rev", Json.Str f.git_rev);
      ("git_dirty", Json.Bool f.git_dirty);
      ("hostname", Json.Str f.hostname);
      ("ocaml_version", Json.Str f.ocaml_version);
      ("word_size", Json.Int f.word_size);
    ]
