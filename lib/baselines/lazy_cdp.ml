open Rtlsat_constr.Types
module P = Rtlsat_constr.Problem
module C = Rtlsat_sat.Cdcl
module Box = Rtlsat_fme.Boxsearch
module Omega = Rtlsat_fme.Omega
module Interval = Rtlsat_interval.Interval

type result = Sat of int array | Unsat | Timeout

type stats = {
  theory_calls : int;
  blocking_clauses : int;
}

let negate_le (e : linexpr) =
  let n = lin_neg e in
  { n with const = n.const + 1 }

let lin_of (e : linexpr) = Box.lin e.terms e.const

let solve ?(deadline = infinity) ?max_nodes ?cancel prob =
  let nv = P.n_vars prob in
  let sat = C.create () in
  let sat_var = Array.make nv (-1) in
  for v = 0 to nv - 1 do
    if P.is_bool_var prob v then sat_var.(v) <- C.new_var sat
  done;
  let lit_of = function
    | Pos v -> C.pos sat_var.(v)
    | Neg v -> C.neg sat_var.(v)
    | Ge _ | Le _ -> invalid_arg "Lazy_cdp: hybrid clause in input"
  in
  (* initial bounds narrowed by the unit bound clauses *)
  let lo = Array.init nv (fun v -> Interval.lo (P.initial_domain prob v)) in
  let hi = Array.init nv (fun v -> Interval.hi (P.initial_domain prob v)) in
  let root_empty = ref false in
  P.iter_clauses
    (fun cl ->
       match cl with
       | [| Ge (v, k) |] -> lo.(v) <- max lo.(v) k
       | [| Le (v, k) |] -> hi.(v) <- min hi.(v) k
       | _ -> C.add_clause sat (Array.to_list (Array.map lit_of cl)))
    prob;
  for v = 0 to nv - 1 do
    if lo.(v) > hi.(v) then root_empty := true
  done;
  let theory_calls = ref 0 in
  let blocking = ref 0 in
  let result = ref None in
  if !root_empty then result := Some Unsat;
  while !result = None do
    if Rtlsat_sat.Search.expired ~deadline cancel then result := Some Timeout
    else begin
      match C.solve ~deadline ?cancel sat with
      | C.Timeout -> result := Some Timeout
      | C.Unsat -> result := Some Unsat
      | C.Sat ->
        (* theory check of the activated constraints *)
        incr theory_calls;
        let bool_val v = if C.value sat sat_var.(v) then 1 else 0 in
        let lins = ref [] and guards = ref [] in
        let push l g =
          lins := l :: !lins;
          guards := g :: !guards
        in
        Array.iter
          (fun c ->
             match c with
             | Lin_le e -> push (lin_of e) []
             | Lin_eq e ->
               push (lin_of e) [];
               push (lin_of (lin_neg e)) []
             | Pred { b; e } ->
               if bool_val b = 1 then push (lin_of e) [ Pos b ]
               else push (lin_of (negate_le e)) [ Neg b ]
             | Mux_w { sel; t; e; z } ->
               let chosen, guard =
                 if bool_val sel = 1 then (t, Pos sel) else (e, Neg sel)
               in
               let eq = lin_of_terms [ (1, z); (-1, chosen) ] 0 in
               push (lin_of eq) [ guard ];
               push (lin_of (lin_neg eq)) [ guard ])
          (P.constrs prob);
        let lins = List.rev !lins and guards = Array.of_list (List.rev !guards) in
        (* pin the Boolean variables to their model values *)
        let bounds =
          Array.init nv (fun v ->
              if sat_var.(v) >= 0 then begin
                let b = bool_val v in
                (b, b)
              end
              else (lo.(v), hi.(v)))
        in
        (match Omega.decide ?max_nodes ~bounds lins with
         | Omega.Sat p -> result := Some (Sat p)
         | Omega.Unknown -> result := Some Timeout
         | Omega.Unsat core ->
           (* blocking clause over the guard literals in the core; a
              core with no guards refutes the skeleton-independent part *)
           let atoms =
             List.concat_map (fun tag -> if tag >= 0 then guards.(tag) else []) core
             |> List.sort_uniq compare
           in
           let core_has_bool_bounds =
             List.exists (fun tag -> tag < 0 && sat_var.((-tag) - 1) >= 0) core
           in
           let bool_bound_atoms =
             (* Boolean variables pinned via bounds also belong in the
                blocking clause *)
             if core_has_bool_bounds then
               List.filter_map
                 (fun tag ->
                    if tag < 0 then begin
                      let v = (-tag) - 1 in
                      if sat_var.(v) >= 0 then
                        Some (if bool_val v = 1 then Pos v else Neg v)
                      else None
                    end
                    else None)
                 core
             else []
           in
           let all = List.sort_uniq compare (atoms @ bool_bound_atoms) in
           if all = [] then result := Some Unsat
           else begin
             incr blocking;
             C.add_clause sat (List.map (fun a -> lit_of (negate_atom a)) all)
           end)
    end
  done;
  (Option.get !result, { theory_calls = !theory_calls; blocking_clauses = !blocking })
