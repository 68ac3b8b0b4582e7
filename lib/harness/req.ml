module Obs = Rtlsat_obs.Obs

type t = {
  timeout : float;
  cancel : bool Atomic.t;
  obs : Obs.t;
  learn_threshold : int option;
  split : bool;
  simplify : bool;
  inprocess : int;
  dump_graph : string option;
  dump_graph_max : int;
  on_learn : (Rtlsat_constr.Types.clause -> unit) option;
}

(* the shared never-set flag backing every request that does not ask
   for its own; mirrors [Solver.default.cancel] *)
let never_cancel = Atomic.make false

(* the one check on a budget: NaN would never expire ([t0 +. nan] is
   never exceeded) and a negative one has expired before it starts *)
let check_timeout timeout =
  if Float.is_nan timeout || timeout < 0.0 then
    invalid_arg
      (Printf.sprintf "timeout must be a number of seconds >= 0, got %g" timeout)

let make ?(timeout = 1200.0) ?(cancel = never_cancel) ?(obs = Obs.disabled)
    ?learn_threshold ?(split = true) ?(simplify = true) ?(inprocess = 0)
    ?dump_graph ?(dump_graph_max = 10) ?on_learn () =
  check_timeout timeout;
  {
    timeout;
    cancel;
    obs;
    learn_threshold;
    split;
    simplify;
    inprocess;
    dump_graph;
    dump_graph_max;
    on_learn;
  }

let default = make ()

let deadline_from t t0 = t0 +. t.timeout
let with_obs t obs = { t with obs }

let options_string t =
  Printf.sprintf "split=%b,simplify=%b,inprocess=%d" t.split t.simplify
    t.inprocess
