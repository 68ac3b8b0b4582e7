let parse text =
  let n_vars = ref 0 in
  let clauses = ref [] in
  let current = ref [] in
  let saw_header = ref false in
  let handle line_no raw =
    let line = String.trim raw in
    if line = "" || line.[0] = 'c' || line.[0] = '%' then ()
    else if line.[0] = 'p' then begin
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ "p"; "cnf"; nv; _nc ] ->
        (match int_of_string_opt nv with
         | Some v when v >= 0 ->
           n_vars := v;
           saw_header := true
         | _ -> failwith (Printf.sprintf "line %d: bad variable count" line_no))
      | _ -> failwith (Printf.sprintf "line %d: bad problem line" line_no)
    end
    else begin
      if not !saw_header then
        failwith (Printf.sprintf "line %d: clause before the problem line" line_no);
      String.split_on_char ' ' line
      |> List.filter (( <> ) "")
      |> List.iter (fun tok ->
          match int_of_string_opt tok with
          | None -> failwith (Printf.sprintf "line %d: bad literal %S" line_no tok)
          | Some 0 ->
            clauses := List.rev !current :: !clauses;
            current := []
          | Some l ->
            if abs l > !n_vars then
              failwith
                (Printf.sprintf "line %d: literal %d exceeds declared variables"
                   line_no l);
            current := l :: !current)
    end
  in
  String.split_on_char '\n' text |> List.iteri (fun i l -> handle (i + 1) l);
  if not !saw_header then failwith "line 1: missing problem line";
  if !current <> [] then clauses := List.rev !current :: !clauses;
  (!n_vars, List.rev !clauses)

let load_cnf solver (n_vars, clauses) =
  let map = Array.init n_vars (fun _ -> Cdcl.new_var solver) in
  List.iter
    (fun cl ->
       Cdcl.add_clause solver
         (List.map
            (fun l ->
               if l > 0 then Cdcl.pos map.(l - 1) else Cdcl.neg map.((-l) - 1))
            cl))
    clauses;
  map

let load solver text = load_cnf solver (parse text)

let solve_cnf ?deadline ?(simplify = true) ?(inprocess = 0) ?solver_out ?obs
    cnf =
  let solver = Cdcl.create () in
  (match solver_out with Some r -> r := Some solver | None -> ());
  let map = load_cnf solver cnf in
  (* one-shot solving: no clause will ever be added after this point,
     so full preprocessing including variable elimination is sound *)
  if simplify then Cdcl.simplify ~elim:true ?deadline solver;
  match Cdcl.solve ?deadline ~inprocess ?obs solver with
  | Cdcl.Unsat -> `Unsat
  | Cdcl.Timeout -> `Timeout
  | Cdcl.Sat -> `Sat (Array.map (fun v -> Cdcl.value solver v) map)

let solve_text ?deadline ?simplify ?inprocess ?solver_out ?obs text =
  solve_cnf ?deadline ?simplify ?inprocess ?solver_out ?obs (parse text)

let print_result fmt = function
  | `Unsat -> Format.fprintf fmt "s UNSATISFIABLE@."
  | `Timeout -> Format.fprintf fmt "s UNKNOWN@."
  | `Sat model ->
    Format.fprintf fmt "s SATISFIABLE@.";
    Format.fprintf fmt "v";
    Array.iteri
      (fun i b -> Format.fprintf fmt " %d" (if b then i + 1 else -(i + 1)))
      model;
    Format.fprintf fmt " 0@."
