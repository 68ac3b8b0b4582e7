(* Heartbeats: periodic in-flight progress events.

   A tiny state machine owned by [Obs.t]: the solver's existing
   step-count gates call [due] (one clock read) and, at most once per
   interval, [beat] renders a [heartbeat] event with totals and
   per-second deltas.  [rtlsat profile] reads the last one back. *)

type t = {
  interval : float;
  mutable next_due : float;  (* absolute time; 0.0 = due immediately *)
  mutable seq : int;
  mutable last_rel : float;
  mutable last_decisions : int;
  mutable last_conflicts : int;
  mutable last_propagations : int;
  mutable last_dps : float;
  mutable last_cps : float;
  mutable last_pps : float;
}

let create ~every =
  if every <= 0.0 then invalid_arg "Heartbeat.create: interval must be positive";
  {
    interval = every;
    next_due = 0.0;
    seq = 0;
    last_rel = 0.0;
    last_decisions = 0;
    last_conflicts = 0;
    last_propagations = 0;
    last_dps = 0.0;
    last_cps = 0.0;
    last_pps = 0.0;
  }

let due t now = now >= t.next_due

let beat t ~now ~now_rel ~decisions ~conflicts ~propagations ~splits ~stalls
    ~shaved ~lvl =
  let dt = now_rel -. t.last_rel in
  t.seq <- t.seq + 1;
  (* non-monotonic or zero [dt] (the wall clock stepped backwards, or
     two beats landed on the same clock reading): the rate math would
     produce negative or infinite values, so keep the previous rates
     and leave the delta baseline frozen — the next monotonic beat
     amortises the whole span.  Totals always carry forward in the
     emitted fields. *)
  if dt > 0.0 then begin
    t.last_dps <- float_of_int (decisions - t.last_decisions) /. dt;
    t.last_cps <- float_of_int (conflicts - t.last_conflicts) /. dt;
    t.last_pps <- float_of_int (propagations - t.last_propagations) /. dt;
    t.last_rel <- now_rel;
    t.last_decisions <- decisions;
    t.last_conflicts <- conflicts;
    t.last_propagations <- propagations
  end;
  let fields =
    [
      ("seq", Json.Int t.seq);
      ("decisions", Json.Int decisions);
      ("dps", Json.Float t.last_dps);
      ("conflicts", Json.Int conflicts);
      ("cps", Json.Float t.last_cps);
      ("propagations", Json.Int propagations);
      ("pps", Json.Float t.last_pps);
      ("splits", Json.Int splits);
      ("stalls", Json.Int stalls);
      ("shaved", Json.Int shaved);
      ("lvl", Json.Int lvl);
    ]
  in
  t.next_due <- now +. t.interval;
  fields
