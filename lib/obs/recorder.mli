(** Flight recorder: an always-on bounded ring buffer of the last N
    trace events.  Unlike {!Trace} it never touches the filesystem
    while the solver runs; events are kept unrendered and only
    serialized by {!dump}, which is called on a timeout, an uncaught
    exception, or SIGUSR1 so a hung solve still yields a post-mortem
    for [rtlsat profile]. *)

(** One buffered event, unrendered: serialization cost is paid at
    {!dump} time, not on the solver's path. *)
type entry = {
  e_t : float;  (** seconds since the owning handle's creation *)
  e_ev : string;
  e_fields : (string * Json.t) list;
}

type t

val create : ?cap:int -> unit -> t
(** A ring of [cap] events (default 4096).
    @raise Invalid_argument when [cap <= 0]. *)

val record : t -> t_rel:float -> ev:string -> (string * Json.t) list -> unit
(** Append one event ([t_rel] seconds since the owning handle's
    creation); the oldest event is overwritten once the ring is
    full. *)

val recorded : t -> int
(** Events currently held (at most the capacity). *)

val dropped : t -> int
(** Events overwritten so far. *)

val is_empty : t -> bool

val iter : t -> (entry -> unit) -> unit
(** Visit the buffered events oldest-first. *)

val dump : t -> string -> unit
(** Write the buffered events to [path] as a well-formed
    {!Trace.schema} JSON-lines stream: a synthetic [header] line, one
    [recorder] event carrying [recorded]/[dropped]/[cap], then the
    buffered events oldest-first.  @raise Sys_error when the file
    cannot be written. *)
