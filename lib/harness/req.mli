(** One request context for every engine invocation.

    [Req.t] replaces the optional-argument explosion that used to ride
    every call into the engine layer ([?timeout ?learn_threshold ?obs
    ?dump_graph ?split ?simplify ?inprocess ?cancel ?on_learn]): the
    CLI, the fuzz oracle, the bench harness and the [rtlsat serve]
    daemon all build one record and thread it down.

    Deadline discipline: a request carries one relative [timeout]
    budget (seconds), applied per engine call — per bound in a sweep,
    per request in [rtlsat serve].  A call started at instant [t0] on
    the monotonic clock ({!Rtlsat_obs.Mono.now}) must finish by
    {!deadline_from}[ req t0]. *)

type t = {
  timeout : float;
      (** per-engine-call budget, seconds; default 1200 (the paper's
          limit).  In a sweep the budget applies to every bound. *)
  cancel : bool Atomic.t;
      (** cooperative cancellation: once set, every engine observing
          this request returns [Timeout] at its next step/fuel gate.
          The default flag is shared and never set — use {!make} [?cancel]
          for a flag you intend to trip *)
  obs : Rtlsat_obs.Obs.t;
      (** observability handle threaded through encode and search;
          default {!Rtlsat_obs.Obs.disabled} *)
  learn_threshold : int option;
      (** cap on learned predicate relations (HDPLL+P); [None] =
          solver default *)
  split : bool;  (** interval-split decisions (hybrid engines); default on *)
  simplify : bool;  (** pre/inprocessing; default on *)
  inprocess : int;
      (** conflicts between inprocessing passes; 0 (default) disables *)
  dump_graph : string option;
      (** conflict-graph DOT export directory (hybrid one-shot solves
          only; ignored by sweeps and baseline engines) *)
  dump_graph_max : int;  (** cap on exported conflict graphs; default 10 *)
  on_learn : (Rtlsat_constr.Types.clause -> unit) option;
      (** short-clause export hook (hybrid engines only); must be
          cheap and must not raise *)
}

val make :
  ?timeout:float ->
  ?cancel:bool Atomic.t ->
  ?obs:Rtlsat_obs.Obs.t ->
  ?learn_threshold:int ->
  ?split:bool ->
  ?simplify:bool ->
  ?inprocess:int ->
  ?dump_graph:string ->
  ?dump_graph_max:int ->
  ?on_learn:(Rtlsat_constr.Types.clause -> unit) ->
  unit ->
  t
(** A request with the defaults documented on {!t}.  Without [?cancel]
    the request shares the global never-set flag.  This is where every
    request's budget is validated: 0 is a valid timeout (decide nothing
    that needs time), a negative or NaN one is not.
    @raise Invalid_argument on a negative or NaN [timeout]. *)

val default : t
(** [make ()] evaluated once; its [cancel] flag is shared and must
    never be set. *)

val deadline_from : t -> float -> float
(** [deadline_from req t0] is the absolute deadline of an engine call
    started at instant [t0]: [t0 +. req.timeout]. *)

val with_obs : t -> Rtlsat_obs.Obs.t -> t

val options_string : t -> string
(** The ledger-facing option digest,
    ["split=<b>,simplify=<b>,inprocess=<n>"] — callers append
    command-specific fields (bound, warm, …) around it so ledger
    grouping keys stay stable. *)
