module Bmc = Rtlsat_bmc.Bmc

type outcome =
  | Proved of int
  | Falsified of int
  | Unknown
  | Stopped of int * Engines.verdict

(* Two warm sessions, each extended by one frame per depth: the base
   case from reset, and the step case from a free initial state, whose
   depth-k query is bound k+1 under [First] semantics *)
let prove ?(req = Req.default) ?(max_k = 20) circuit ~prop =
  let base =
    Engines.session ~req ~semantics:Bmc.Any Engines.Hdpll_sp circuit ~prop
  in
  let step =
    Engines.session ~req ~semantics:Bmc.First ~free_init:true Engines.Hdpll_sp
      circuit ~prop
  in
  let ask s bound = (Engines.sweep_step ~req s ~bound).Engines.sw_run.Engines.verdict in
  let rec go k =
    if k > max_k then Unknown
    else
      match ask base k with
      | Engines.Sat -> Falsified k
      | Engines.Unsat -> (
          match ask step (k + 1) with
          | Engines.Unsat -> Proved k
          | Engines.Sat -> go (k + 1)
          | v -> Stopped (k, v))
      | v -> Stopped (k, v)
  in
  go 1
