(** Flight recorder: an always-on bounded ring buffer of the last N
    trace events.  Unlike {!Trace} it never touches the filesystem
    while the solver runs, and it renders nothing: the search's
    per-decision and per-conflict events are stored flat (a {!kind} and
    three ints), the rare ones with the field list their caller built,
    and the summary tables as markers that {!dump} builds.  A dump runs
    on a timeout, an uncaught exception, or SIGUSR1, so a hung solve
    still yields a post-mortem for [rtlsat profile]. *)

(** The kind of a search decision, the [kind] field of a [decide]
    event. *)
type decision = Activity | Structural | Random | Assumption | Split

val decision_code : decision -> int
(** The [a] argument of a {!Decide} event. *)

(** What a ring slot holds. *)
type kind =
  | Generic  (** an event recorded by {!record} *)
  | Decide
      (** [decide]: [a] the {!decision_code}, [b] the level, [c] the
          variable *)
  | Conflict  (** [conflict]: [a] the level, [b] the backjump level, [c]
                  the learned clause's length *)
  | Learn  (** [learn] with cause [conflict]: [a] the clause's length *)
  | Static_learn
      (** [learn] with cause [static]: [a] the clause's length, [b] the
          probe's trigger variable *)
  | Restart  (** [restart]: [a] its number, [b] the conflicts so far *)
  | Phases  (** marker of a [phases] event, built by {!dump}'s [summary] *)
  | Hot_constraints  (** marker of a [hot_constraints] event *)
  | Hot_vars  (** marker of a [hot_vars] event *)

val render : kind -> int -> int -> int -> string * (string * Json.t) list
(** The event name and fields of a flat event ({!Decide} to
    {!Restart}): the one rendering of them, for a trace file as for a
    dump.  @raise Invalid_argument on [Generic] and on a marker. *)

val summary_name : kind -> string
(** The event name of a marker.
    @raise Invalid_argument on a non-marker. *)

(** One buffered event, rendered. *)
type entry = {
  e_t : float;  (** seconds since the owning handle's creation *)
  e_ev : string;
  e_fields : (string * Json.t) list;
}

type t

val create : ?cap:int -> unit -> t
(** A ring of [cap] events (default 4096), its slots allocated as it
    fills (64 at first, doubling).
    @raise Invalid_argument when [cap <= 0]. *)

val record : t -> t_rel:float -> ev:string -> (string * Json.t) list -> unit
(** Append one [Generic] event ([t_rel] seconds since the owning
    handle's creation); the oldest event is overwritten once the ring
    is full. *)

val record_flat : t -> t_rel:float -> kind -> int -> int -> int -> unit
(** Append one flat event or marker with its three ints (unused ones
    are ignored); allocates nothing once the ring has grown to its
    capacity. *)

val recorded : t -> int
(** Events currently held (at most the capacity). *)

val dropped : t -> int
(** Events overwritten so far. *)

val is_empty : t -> bool

val iter : t -> (entry -> unit) -> unit
(** Visit the buffered events oldest-first, rendered, as {!dump} writes
    them; a marker has no fields here. *)

val dump : ?summary:(kind -> (string * Json.t) list) -> t -> string -> unit
(** Write the buffered events to [path] as a well-formed
    {!Trace.schema} JSON-lines stream: a synthetic [header] line, one
    [recorder] event carrying [recorded]/[dropped]/[cap], then the
    buffered events oldest-first, each marker with the fields
    [summary] builds at dump time.  Since those fields describe the
    handle at the dump, only the newest marker of each kind is written;
    [recorded] counts the events written, [dropped] those overwritten.
    @raise Sys_error when the file cannot be written. *)
