open Types
module Interval = Rtlsat_interval.Interval

type t = {
  kinds : kind Vec.t;
  names : string option Vec.t;
  cls : clause Vec.t;
  cns : constr Vec.t;
}

let create () =
  {
    kinds = Vec.create ~dummy:Bool ();
    names = Vec.create ~dummy:None ();
    cls = Vec.create ~dummy:[||] ();
    cns = Vec.create ~dummy:(Lin_eq { terms = []; const = 0 }) ();
  }

let new_var p ?name kind =
  let v = Vec.length p.kinds in
  Vec.push p.kinds kind;
  Vec.push p.names name;
  v

let new_bool p ?name () = new_var p ?name Bool
let new_word p ?name dom = new_var p ?name (Word dom)

let n_vars p = Vec.length p.kinds
let kind p v = Vec.get p.kinds v
let is_bool_var p v = match kind p v with Bool -> true | Word _ -> false

let initial_domain p v =
  match kind p v with Bool -> Interval.bool_dom | Word d -> d

let var_name p v =
  match Vec.get p.names v with
  | Some s -> s
  | None -> (if is_bool_var p v then "b" else "w") ^ string_of_int v

let add_clause p cl =
  if Array.length cl = 0 then invalid_arg "Problem.add_clause: empty clause";
  Vec.push p.cls cl

let add_constr p c = Vec.push p.cns c

let clauses p = Vec.to_list p.cls
let constrs p = Array.of_list (Vec.to_list p.cns)
let n_clauses p = Vec.length p.cls
let n_constrs p = Vec.length p.cns
let clause_at p i = Vec.get p.cls i
let constr_at p i = Vec.get p.cns i

let iter_clauses f p = Vec.iter f p.cls
let iter_constrs f p = Vec.iteri f p.cns

let check_model p env =
  let name = var_name p in
  let exception Violation of string in
  try
    for v = 0 to n_vars p - 1 do
      let value = env v in
      if not (Interval.mem value (initial_domain p v)) then
        raise (Violation (Printf.sprintf "domain violated: %s = %d" (name v) value))
    done;
    iter_clauses
      (fun cl ->
         if not (eval_clause env cl) then
           raise
             (Violation
                (Format.asprintf "clause falsified: %a" (pp_clause ~name ()) cl)))
      p;
    iter_constrs
      (fun _ c ->
         if not (eval_constr env c) then
           raise
             (Violation
                (Format.asprintf "constraint violated: %a" (pp_constr ~name ()) c)))
      p;
    Ok "model ok"
  with Violation msg -> Error msg

let pp fmt p =
  let name = var_name p in
  Format.fprintf fmt "problem: %d vars, %d clauses, %d constraints@." (n_vars p)
    (n_clauses p) (n_constrs p);
  for v = 0 to n_vars p - 1 do
    match kind p v with
    | Bool -> Format.fprintf fmt "  bool %s@." (name v)
    | Word d -> Format.fprintf fmt "  word %s in %a@." (name v) Interval.pp d
  done;
  iter_clauses (fun cl -> Format.fprintf fmt "  %a@." (pp_clause ~name ()) cl) p;
  iter_constrs (fun _ c -> Format.fprintf fmt "  %a@." (pp_constr ~name ()) c) p
