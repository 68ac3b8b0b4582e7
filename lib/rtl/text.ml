open Ir

(* ---- printing ---- *)

let op_syntax n =
  let name m = node_name m in
  match n.op with
  | Input | Reg _ -> assert false
  | Const v -> Printf.sprintf "const %d %d" v n.width
  | Not a -> "not " ^ name a
  | And ns ->
    "and " ^ String.concat " " (Array.to_list (Array.map name ns))
  | Or ns -> "or " ^ String.concat " " (Array.to_list (Array.map name ns))
  | Xor (a, b) -> Printf.sprintf "xor %s %s" (name a) (name b)
  | Mux { sel; t; e } -> Printf.sprintf "mux %s %s %s" (name sel) (name t) (name e)
  | Add { a; b; wrap } ->
    Printf.sprintf "%s %s %s" (if wrap then "add" else "addext") (name a) (name b)
  | Sub { a; b } -> Printf.sprintf "sub %s %s" (name a) (name b)
  | Mul_const { k; a } -> Printf.sprintf "mulc %d %s" k (name a)
  | Cmp { op; a; b } ->
    let o =
      match op with
      | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
    in
    Printf.sprintf "%s %s %s" o (name a) (name b)
  | Concat { hi; lo } -> Printf.sprintf "concat %s %s" (name hi) (name lo)
  | Extract { a; msb; lsb } -> Printf.sprintf "extract %s %d %d" (name a) msb lsb
  | Zext a -> Printf.sprintf "zext %s %d" (name a) n.width
  | Shl { a; k } -> Printf.sprintf "shl %s %d" (name a) k
  | Shr { a; k } -> Printf.sprintf "shr %s %d" (name a) k
  | Bitand (a, b) -> Printf.sprintf "bitand %s %s" (name a) (name b)
  | Bitor (a, b) -> Printf.sprintf "bitor %s %s" (name a) (name b)
  | Bitxor (a, b) -> Printf.sprintf "bitxor %s %s" (name a) (name b)

let print fmt c =
  Format.fprintf fmt "circuit %s@." c.cname;
  List.iter
    (fun n ->
       match n.op with
       | Input -> Format.fprintf fmt "input %s %d@." (node_name n) n.width
       | Reg r -> Format.fprintf fmt "reg %s %d %d@." (node_name n) n.width r.init
       | _ -> Format.fprintf fmt "node %s = %s@." (node_name n) (op_syntax n))
    (nodes c);
  List.iter
    (fun n ->
       match n.op with
       | Reg { next = Some nx; _ } ->
         Format.fprintf fmt "connect %s %s@." (node_name n) (node_name nx)
       | _ -> ())
    (nodes c);
  List.iter
    (fun (port, n) -> Format.fprintf fmt "output %s %s@." port (node_name n))
    (List.rev c.outputs)

let to_string c = Format.asprintf "%a" print c

(* ---- parsing ---- *)

let parse text =
  let env : (string, node) Hashtbl.t = Hashtbl.create 64 in
  let circuit = ref None in
  let the_circuit line =
    match !circuit with
    | Some c -> c
    | None -> failwith (Printf.sprintf "line %d: no circuit declared" line)
  in
  let resolve line name =
    match Hashtbl.find_opt env name with
    | Some n -> n
    | None -> failwith (Printf.sprintf "line %d: unknown node %s" line name)
  in
  let bind line name n =
    if Hashtbl.mem env name then
      failwith (Printf.sprintf "line %d: duplicate node %s" line name);
    Hashtbl.replace env name n
  in
  let int_of line s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> failwith (Printf.sprintf "line %d: expected integer, got %s" line s)
  in
  let parse_node line c name rhs =
    let r i = resolve line (List.nth rhs i) in
    let k i = int_of line (List.nth rhs i) in
    let arity n =
      if List.length rhs - 1 <> n then
        failwith (Printf.sprintf "line %d: wrong operand count" line)
    in
    let node =
      match List.hd rhs with
      | "const" -> arity 2; Netlist.const c ~width:(k 2) (k 1)
      | "not" -> arity 1; Netlist.not_ c (r 1)
      | "and" -> Netlist.and_ c ~name (List.map (resolve line) (List.tl rhs))
      | "or" -> Netlist.or_ c ~name (List.map (resolve line) (List.tl rhs))
      | "xor" -> arity 2; Netlist.xor_ c (r 1) (r 2)
      | "mux" -> arity 3; Netlist.mux c ~name ~sel:(r 1) ~t:(r 2) ~e:(r 3) ()
      | "add" -> arity 2; Netlist.add c (r 1) (r 2)
      | "addext" -> arity 2; Netlist.add_ext c (r 1) (r 2)
      | "sub" -> arity 2; Netlist.sub c (r 1) (r 2)
      | "mulc" -> arity 2; Netlist.mul_const c (k 1) (r 2)
      | "eq" -> arity 2; Netlist.cmp c ~name Eq (r 1) (r 2)
      | "ne" -> arity 2; Netlist.cmp c ~name Ne (r 1) (r 2)
      | "lt" -> arity 2; Netlist.cmp c ~name Lt (r 1) (r 2)
      | "le" -> arity 2; Netlist.cmp c ~name Le (r 1) (r 2)
      | "gt" -> arity 2; Netlist.cmp c ~name Gt (r 1) (r 2)
      | "ge" -> arity 2; Netlist.cmp c ~name Ge (r 1) (r 2)
      | "concat" -> arity 2; Netlist.concat c ~hi:(r 1) ~lo:(r 2)
      | "extract" -> arity 3; Netlist.extract c (r 1) ~msb:(k 2) ~lsb:(k 3)
      | "zext" -> arity 2; Netlist.zext c (r 1) ~width:(k 2)
      | "shl" -> arity 2; Netlist.shl c (r 1) (k 2)
      | "shr" -> arity 2; Netlist.shr c (r 1) (k 2)
      | "bitand" -> arity 2; Netlist.bitand c (r 1) (r 2)
      | "bitor" -> arity 2; Netlist.bitor c (r 1) (r 2)
      | "bitxor" -> arity 2; Netlist.bitxor c (r 1) (r 2)
      | op -> failwith (Printf.sprintf "line %d: unknown operator %s" line op)
    in
    Netlist.set_name node name;
    node
  in
  (* a builder's Invalid_argument (width out of range, bad init, ...)
     becomes a parse failure that names the line *)
  let located line_no build =
    try build ()
    with Invalid_argument msg ->
      failwith (Printf.sprintf "line %d: %s" line_no msg)
  in
  let handle line_no raw =
    let stripped =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    match String.split_on_char ' ' (String.trim stripped)
          |> List.filter (fun s -> s <> "")
    with
    | [] -> ()
    | "circuit" :: [ name ] ->
      if !circuit <> None then
        failwith (Printf.sprintf "line %d: duplicate circuit line" line_no);
      circuit := Some (Netlist.create name)
    | "input" :: [ name; w ] ->
      let c = the_circuit line_no in
      let w = int_of line_no w in
      bind line_no name (located line_no (fun () -> Netlist.input c ~name w))
    | "reg" :: [ name; w; init ] ->
      let c = the_circuit line_no in
      let width = int_of line_no w and init = int_of line_no init in
      bind line_no name
        (located line_no (fun () -> Netlist.reg c ~name ~width ~init ()))
    | "node" :: name :: "=" :: rhs when rhs <> [] ->
      let c = the_circuit line_no in
      bind line_no name (located line_no (fun () -> parse_node line_no c name rhs))
    | "connect" :: [ rname; nname ] ->
      let r = resolve line_no rname and n = resolve line_no nname in
      located line_no (fun () -> Netlist.connect r n)
    | "output" :: [ port; nname ] ->
      Netlist.output (the_circuit line_no) port (resolve line_no nname)
    | _ -> failwith (Printf.sprintf "line %d: cannot parse %S" line_no raw)
  in
  String.split_on_char '\n' text |> List.iteri (fun i l -> handle (i + 1) l);
  match !circuit with
  | Some c -> c
  | None -> failwith "line 1: empty input (no circuit line)"

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
