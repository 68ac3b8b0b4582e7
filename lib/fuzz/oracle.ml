open Rtlsat_rtl
module Bmc = Rtlsat_bmc.Bmc
module Engines = Rtlsat_harness.Engines
module Req = Rtlsat_harness.Req
module R = Random.State

type failure =
  | Disagree
  | Witness_rejected of Engines.engine * string
  | Unsat_refuted of int list list

type certificate =
  | Witness_replay
  | Exhaustive of int
  | Sampled of int
  | No_certificate

type outcome = {
  verdicts : (Engines.engine * Engines.verdict) list;
  failure : failure option;
  cert : certificate;
}

let default_engines =
  [
    Engines.Hdpll; Engines.Hdpll_s; Engines.Hdpll_p; Engines.Hdpll_sp;
    Engines.Bitblast; Engines.Lazy_cdp;
  ]

let violated (inst : Bmc.instance) matrix =
  let inputs = Ir.inputs inst.Bmc.source in
  Bmc.violated inst (List.map (List.combine inputs) matrix)

(* independent refutation search for a unanimous Unsat: find an input
   matrix whose simulation violates the property *)
let refute ~budget ~seed (inst : Bmc.instance) =
  let inputs = Ir.inputs inst.Bmc.source in
  let widths = List.map (fun n -> n.Ir.width) inputs in
  let bits_per_frame = List.fold_left ( + ) 0 widths in
  let total_bits = bits_per_frame * inst.Bmc.bound in
  let matrix_of_index idx =
    let pos = ref 0 in
    List.init inst.Bmc.bound (fun _ ->
        List.map
          (fun w ->
             let v = (idx lsr !pos) land ((1 lsl w) - 1) in
             pos := !pos + w;
             v)
          widths)
  in
  if total_bits <= 20 && 1 lsl total_bits <= budget then begin
    let space = 1 lsl total_bits in
    let rec scan i =
      if i >= space then None
      else
        let m = matrix_of_index i in
        if violated inst m then Some (m, Exhaustive space) else scan (i + 1)
    in
    scan 0
  end
  else begin
    let rng = R.make [| 0x0dd5; seed |] in
    let random_matrix () =
      List.init inst.Bmc.bound (fun _ ->
          List.map
            (fun w ->
               let maxv = if w >= 61 then (1 lsl 61) - 1 else (1 lsl w) - 1 in
               R.full_int rng (maxv + 1))
            widths)
    in
    let rec scan i =
      if i >= budget then None
      else
        let m = random_matrix () in
        if violated inst m then Some (m, Sampled budget) else scan (i + 1)
    in
    scan 0
  end

let default_req = Req.make ~timeout:10.0 ()

let check ?(engines = default_engines) ?(req = default_req)
    ?(cert_budget = 4096) ?(seed = 0) (case : Case.t) =
  let inst = Case.instance case in
  let verdicts =
    List.map
      (fun e -> (e, (Engines.run_instance ~req e inst).Engines.verdict))
      engines
  in
  let aborted =
    List.find_map
      (function e, Engines.Abort msg -> Some (e, msg) | _ -> None)
      verdicts
  in
  let has v = List.exists (fun (_, w) -> w = v) verdicts in
  match aborted with
  | Some (e, msg) ->
    { verdicts; failure = Some (Witness_rejected (e, msg)); cert = No_certificate }
  | None ->
    if has Engines.Sat && has Engines.Unsat then
      { verdicts; failure = Some Disagree; cert = No_certificate }
    else if has Engines.Sat then
      (* models already replayed through Sim inside run_instance *)
      { verdicts; failure = None; cert = Witness_replay }
    else if has Engines.Unsat then (
      match refute ~budget:cert_budget ~seed inst with
      | Some (matrix, _) ->
        { verdicts; failure = Some (Unsat_refuted matrix); cert = No_certificate }
      | None ->
        let cert =
          (* recompute the shape of the search that came up empty *)
          let bits =
            inst.Bmc.bound
            * List.fold_left
                (fun acc n -> acc + n.Ir.width)
                0
                (Ir.inputs inst.Bmc.source)
          in
          if bits <= 20 && 1 lsl bits <= cert_budget then Exhaustive (1 lsl bits)
          else Sampled cert_budget
        in
        { verdicts; failure = None; cert })
    else { verdicts; failure = None; cert = No_certificate }

let describe o =
  let vs =
    String.concat " "
      (List.map
         (fun (e, v) ->
            Printf.sprintf "%s=%s" (Engines.engine_name e)
              (Engines.verdict_symbol v))
         o.verdicts)
  in
  let tail =
    match o.failure with
    | None -> (
        match o.cert with
        | Witness_replay -> " [sat, witness replayed]"
        | Exhaustive n -> Printf.sprintf " [unsat, %d matrices exhausted]" n
        | Sampled n -> Printf.sprintf " [unsat, %d matrices sampled]" n
        | No_certificate -> " [timeout]")
    | Some Disagree -> " [DISAGREEMENT]"
    | Some (Witness_rejected (e, msg)) ->
      Printf.sprintf " [WITNESS REJECTED: %s: %s]" (Engines.engine_name e) msg
    | Some (Unsat_refuted _) -> " [UNSAT REFUTED BY SIMULATION]"
  in
  vs ^ tail
