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
(** Probed once per process (two [git] subprocesses), then cached. *)

val fingerprint_json : unit -> Json.t
(** [{"git_rev", "git_dirty", "hostname", "ocaml_version",
    "word_size"}] — the ["env"] block of ledger records, solve
    stats-json and bench artifacts. *)
