type cmp = Eq | Ne | Lt | Le | Gt | Ge

type node = {
  id : int;
  width : int;
  op : op;
  mutable name : string option;
}

and op =
  | Input
  | Const of int
  | Not of node
  | And of node array
  | Or of node array
  | Xor of node * node
  | Mux of { sel : node; t : node; e : node }
  | Add of { a : node; b : node; wrap : bool }
  | Sub of { a : node; b : node }
  | Mul_const of { k : int; a : node }
  | Cmp of { op : cmp; a : node; b : node }
  | Concat of { hi : node; lo : node }
  | Extract of { a : node; msb : int; lsb : int }
  | Zext of node
  | Shl of { a : node; k : int }
  | Shr of { a : node; k : int }
  | Bitand of node * node
  | Bitor of node * node
  | Bitxor of node * node
  | Reg of reg

and reg = { init : int; mutable next : node option }

type circuit = {
  cname : string;
  mutable ncount : int;
  mutable rev_nodes : node list;
  mutable rev_inputs : node list;
  mutable rev_regs : node list;
  mutable outputs : (string * node) list;
}

let is_bool n = n.width = 1
let max_value n = (1 lsl n.width) - 1

let nodes c = List.rev c.rev_nodes

(* the newest nodes sit at the head of [rev_nodes] *)
let nodes_since c k =
  let rec take acc = function
    | n :: rest when n.id >= k -> take (n :: acc) rest
    | _ -> acc
  in
  take [] c.rev_nodes
let inputs c = List.rev c.rev_inputs
let regs c = List.rev c.rev_regs

let node_name n =
  match n.name with Some s -> s | None -> "n" ^ string_of_int n.id

let reg_next n =
  match n.op with
  | Reg { next = Some nx; _ } -> nx
  | Reg { next = None; _ } -> invalid_arg "Ir.reg_next: unconnected register"
  | _ -> invalid_arg "Ir.reg_next: not a register"

let fanins n =
  match n.op with
  | Input | Const _ | Reg _ -> []
  | Not a | Zext a -> [ a ]
  | And ns | Or ns -> Array.to_list ns
  | Xor (a, b) | Bitand (a, b) | Bitor (a, b) | Bitxor (a, b) -> [ a; b ]
  | Mux { sel; t; e } -> [ sel; t; e ]
  | Add { a; b; _ } | Sub { a; b } | Cmp { a; b; _ } -> [ a; b ]
  | Mul_const { a; _ } | Extract { a; _ } | Shl { a; _ } | Shr { a; _ } -> [ a ]
  | Concat { hi; lo } -> [ hi; lo ]

let cmp_to_string = function
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let op_label n =
  match n.op with
  | Input -> "input"
  | Const v -> Printf.sprintf "const %d" v
  | Not _ -> "not"
  | And _ -> "and"
  | Or _ -> "or"
  | Xor _ -> "xor"
  | Mux _ -> "mux"
  | Add { wrap; _ } -> if wrap then "add.wrap" else "add"
  | Sub _ -> "sub.wrap"
  | Mul_const { k; _ } -> Printf.sprintf "mulc %d" k
  | Cmp { op; _ } -> "cmp " ^ cmp_to_string op
  | Concat _ -> "concat"
  | Extract { msb; lsb; _ } -> Printf.sprintf "extract[%d:%d]" msb lsb
  | Zext _ -> "zext"
  | Shl { k; _ } -> Printf.sprintf "shl %d" k
  | Shr { k; _ } -> Printf.sprintf "shr %d" k
  | Bitand _ -> "bitand"
  | Bitor _ -> "bitor"
  | Bitxor _ -> "bitxor"
  | Reg { init; _ } -> Printf.sprintf "reg init=%d" init

let pp_node fmt n =
  let pp_fanins fmt ns =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      (fun fmt m -> Format.pp_print_string fmt (node_name m))
      fmt ns
  in
  Format.fprintf fmt "%s:%d = %s(%a)" (node_name n) n.width (op_label n)
    pp_fanins (fanins n);
  match n.op with
  | Reg r ->
    (match r.next with
     | Some nx -> Format.fprintf fmt " next=%s" (node_name nx)
     | None -> Format.fprintf fmt " next=<unconnected>")
  | _ -> ()

let pp_circuit fmt c =
  Format.fprintf fmt "circuit %s (%d nodes)@." c.cname c.ncount;
  List.iter (fun n -> Format.fprintf fmt "  %a@." pp_node n) (nodes c);
  List.iter
    (fun (name, n) -> Format.fprintf fmt "  output %s = %s@." name (node_name n))
    c.outputs
