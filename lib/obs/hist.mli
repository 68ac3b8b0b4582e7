(** Bounded histograms over non-negative integers — fixed bucket
    limits chosen at creation, O(#buckets) per observation, constant
    memory.  Used for learned-clause lengths, backjump distances and
    interval widths after narrowing. *)

type t

val create : int array -> t
(** [create limits]: bucket [i] counts observations [x <= limits.(i)]
    (first matching bucket wins); one extra overflow bucket catches
    the rest.  [limits] must be strictly increasing. *)

val observe : t -> int -> unit

type summary = {
  n : int;            (** observations *)
  total : int;
      (** sum of observed values, saturating at [max_int] (a handful of
          2{^61}-wide interval widths would otherwise wrap it) *)
  vmin : int;         (** 0 when empty *)
  vmax : int;
  mean : float;
      (** from a float sum, so it stays right when [total] saturates;
          0.0 when empty *)
  buckets : (string * int) list;
      (** bucket label (["<=k"] / [">k"]) → count, in bound order *)
}

val summary : t -> summary
val summary_json : summary -> Json.t
