(* Monotonic-clamped wall clock for deadlines and elapsed-time
   measurement.

   OCaml's stdlib exposes no monotonic clock, and [Unix.gettimeofday]
   follows wall-clock adjustments: an NTP step mid-solve makes an
   absolute deadline fire spuriously (step forward) or never (step
   back), and elapsed times go negative.  Same spirit as the
   [Heartbeat.beat] dt-guard: remember the largest instant ever
   observed and clamp every reading to it, so time never goes
   backwards process-wide.  A forward step still passes through (the
   clock jumps ahead once and stays monotonic from there) — the
   failure mode left is a too-early timeout after a large forward
   step, which is benign next to a deadline that never fires.

   The clamp lives in a one-cell float array, whose store is unboxed:
   a [float ref] would box every reading a second time, doubling the
   allocation of a call to the clock's own two words. *)

let last = [| 0.0 |]

let now () =
  let t = Unix.gettimeofday () in
  if t >= last.(0) then begin
    last.(0) <- t;
    t
  end
  else last.(0)
