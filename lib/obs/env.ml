type fingerprint = {
  git_rev : string;
  git_dirty : bool;
  hostname : string;
  ocaml_version : string;
  word_size : int;
}

let parse_porcelain_v2 out =
  let lines = String.split_on_char '\n' out in
  let prefix = "# branch.oid " in
  let p = String.length prefix in
  let oid l =
    if String.starts_with ~prefix l then Some (String.sub l p (String.length l - p))
    else None
  in
  let rev =
    (* "(initial)", before the first commit, is shorter than a rev *)
    match List.find_map oid lines with
    | Some o when String.length o >= 12 -> String.sub o 0 12
    | _ -> "unknown"
  in
  (rev, List.exists (fun l -> l <> "" && l.[0] <> '#') lines)

(* A [.git] entry (directory, or the file of a worktree or submodule)
   in [dir] or any parent.  Without one, and without [GIT_DIR], git
   cannot find a repository, so there is nothing to ask it. *)
let rec in_checkout dir =
  Sys.file_exists (Filename.concat dir ".git")
  ||
  let parent = Filename.dirname dir in
  parent <> dir && in_checkout parent

(* stdout of one [git status] exec — no shell, stdin and stderr on
   /dev/null — or [None] on any failure: missing binary, non-repo
   cwd, non-zero exit.  [--no-optional-locks] keeps the probe from
   taking [.git/index.lock] under a user's concurrent git command. *)
let git_status () =
  let args =
    [| "git"; "--no-optional-locks"; "status"; "--porcelain=v2"; "--branch";
       "--no-ahead-behind" |]
  in
  let rec wait pid =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
    | _, status -> status
  in
  try
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
         let r, w = Unix.pipe ~cloexec:true () in
         let ic = Unix.in_channel_of_descr r in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () ->
              let pid =
                Fun.protect
                  ~finally:(fun () -> Unix.close w)
                  (fun () -> Unix.create_process "git" args null w null)
              in
              let out = In_channel.input_all ic in
              match wait pid with Unix.WEXITED 0 -> Some out | _ -> None))
  with Unix.Unix_error _ | Sys_error _ -> None

let probe () =
  let git_rev, git_dirty =
    let here = try Some (Sys.getcwd ()) with Sys_error _ -> None in
    let ask =
      (match Sys.getenv_opt "GIT_DIR" with Some d -> d <> "" | None -> false)
      || match here with Some d -> in_checkout d | None -> false
    in
    match if ask then git_status () else None with
    | Some out -> parse_porcelain_v2 out
    | None -> ("unknown", false)
  in
  {
    git_rev;
    git_dirty;
    hostname = (try Unix.gethostname () with _ -> "unknown");
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
  }

let cache = lazy (probe ())
let fingerprint () = Lazy.force cache

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
