(** Environment fingerprint: which code, on which machine, under which
    runtime produced an artifact.  Embedded in every ledger record
    ({!Ledger}) and in [rtlsat solve --stats-json], so results stay
    attributable after the working tree moves on.

    All probes are best-effort and cached for the process lifetime:
    a missing [git] binary or a non-repo working directory yields
    ["unknown"] / [false] rather than an error. *)

type fingerprint = {
  git_rev : string;      (** 12-char commit id, or ["unknown"] *)
  git_dirty : bool;      (** uncommitted changes in the working tree *)
  hostname : string;
  ocaml_version : string;
  word_size : int;       (** [Sys.word_size], bits *)
}

val fingerprint : unit -> fingerprint
(** {!probe} once per process, then cached. *)

val probe : unit -> fingerprint
(** The uncached probe.  Inside a checkout (a [.git] entry in the
    working directory or above it, or a non-empty [GIT_DIR]) it runs
    one [git --no-optional-locks status --porcelain=v2 --branch] exec —
    no shell, and no [.git/index.lock] taken; outside one it starts
    no process and answers ["unknown"] / [false]. *)

val parse_porcelain_v2 : string -> string * bool
(** [(git_rev, git_dirty)] from the output of
    [git status --porcelain=v2 --branch]: the first 12 characters of
    the [# branch.oid] header (["unknown"] when it is missing or reads
    [(initial)]), and whether any line is not a [#] header — a
    changed, unmerged or untracked path. *)

val fingerprint_json : unit -> Json.t
(** [{"git_rev", "git_dirty", "hostname", "ocaml_version",
    "word_size"}] — the ["env"] block of ledger records, solve
    stats-json and bench artifacts. *)
