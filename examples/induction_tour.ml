(* k-induction tour: unbounded proofs on top of the BMC substrate.

   Bounded model checking (the paper's workload) only covers a finite
   number of frames; k-induction extends the engines to proofs over
   all reachable states.  Base case: no violation within k frames
   from reset.  Step case: from an arbitrary state, k good frames
   cannot be followed by a bad one. *)

module Registry = Rtlsat_itc99.Registry
module Induction = Rtlsat_harness.Induction

let try_prove ?(max_k = 10) circuit prop =
  let c, props = Registry.build circuit in
  let p = List.assoc prop props in
  let t0 = Unix.gettimeofday () in
  let outcome = Induction.prove ~max_k c ~prop:p in
  let dt = Unix.gettimeofday () -. t0 in
  match outcome with
  | Induction.Proved k ->
    Format.printf "%s_%-3s PROVED      inductive at k=%d  (%.2fs)@." circuit prop k dt
  | Induction.Falsified k ->
    Format.printf "%s_%-3s FALSIFIED   counterexample of %d cycles  (%.2fs)@."
      circuit prop k dt
  | Induction.Unknown ->
    Format.printf "%s_%-3s UNKNOWN     not inductive within the budget  (%.2fs)@."
      circuit prop dt
  | Induction.Stopped (k, v) ->
    Format.printf "%s_%-3s STOPPED     %s at k=%d  (%.2fs)@." circuit prop
      (Rtlsat_harness.Report.verdict_string v) k dt

let () =
  Format.printf "== k-induction over the benchmark suite ==@.@.";
  List.iter
    (fun (c, p) -> try_prove c p)
    [
      ("b01", "2");  (* overflow only at byte boundaries: inductive *)
      ("b02", "2");  (* acceptance flag only in state G *)
      ("b04", "1");  (* RMAX >= RMIN while running *)
      ("b04", "2");  (* spread 255 is reachable: falsified *)
      ("b06", "1");  (* ack channels mutually exclusive *)
      ("b08", "2");  (* no matches while loading *)
      ("b10", "2");  (* alarm implies saturated mismatch counter *)
      ("b13", "3");  (* receive FSM encoding *)
      ("b13", "5");  (* timeout counter saturates: 1-inductive *)
    ];
  (* a reachable violation needs 13 cycles of context *)
  try_prove ~max_k:15 "b13" "40";
  Format.printf
    "@.Properties that hold only up to a wrap-around bound (or need a@.";
  Format.printf
    "strengthening invariant) come back UNKNOWN rather than Proved:@.@.";
  try_prove "b13" "2"
