module Registry = Rtlsat_itc99.Registry
module Json = Rtlsat_obs.Json
module Ledger = Rtlsat_obs.Ledger

let schema = "rtlsat.serve/1"

(* one warm session of the pool *)
type entry = {
  sess : Engines.session;
  engine : Engines.engine;
  key : string;
  mutable solves : int;
}

type t = {
  pool : (string, entry) Hashtbl.t;
  ledger : string option;
  default_engine : Engines.engine;
  mutable served : int;
}

let create ?ledger ?(engine = Engines.Hdpll_sp) () =
  { pool = Hashtbl.create 8; ledger; default_engine = engine; served = 0 }

(* ---- request plumbing ---- *)

let str_field name j = Option.bind (Json.member name j) Json.get_string
let int_field name j = Option.bind (Json.member name j) Json.get_int

let require name = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" name)

let ok ~id fields =
  Json.Obj
    (("schema", Json.Str schema) :: ("id", id) :: ("ok", Json.Bool true)
     :: fields)

let err ~id msg =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("id", id);
      ("ok", Json.Bool false);
      ("error", Json.Str msg);
    ]

(* the request context; a [timeout_s] that is present must be a number,
   and Req.make validates its value *)
let request_req request =
  let timeout =
    Option.map
      (fun j ->
         match Json.get_float j with
         | Some t -> t
         | None -> failwith "field \"timeout_s\" must be a number")
      (Json.member "timeout_s" request)
  in
  Req.make ?timeout ()

(* ---- the warm session pool ---- *)

let get_session t ~circuit ~prop ~engine ~req =
  let key = Printf.sprintf "%s/%s/%s" circuit prop (Engines.engine_name engine) in
  match Hashtbl.find_opt t.pool key with
  | Some e -> (e, true)
  | None ->
    let source, props =
      try Registry.build circuit
      with Not_found -> failwith (Printf.sprintf "unknown circuit %S" circuit)
    in
    let p =
      match List.assoc_opt prop props with
      | Some p -> p
      | None ->
        failwith
          (Printf.sprintf "unknown property %S of circuit %S" prop circuit)
    in
    let e =
      { sess = Engines.session ~req engine source ~prop:p; engine; key; solves = 0 }
    in
    Hashtbl.add t.pool key e;
    (e, false)

let step_fields (step : Engines.sweep_step) =
  let r = step.Engines.sw_run in
  [
    ("bound", Json.Int step.Engines.sw_bound);
    ("verdict", Json.Str (Report.verdict_string r.Engines.verdict));
    ("time_s", Json.Float r.Engines.time);
    ("decisions", Json.Int r.Engines.decisions);
    ("conflicts", Json.Int r.Engines.conflicts);
    ("carried_clauses", Json.Int step.Engines.sw_carried_clauses);
    ("carried_relations", Json.Int step.Engines.sw_carried_relations);
  ]

let session_fields e ~warm =
  ( "session",
    Json.Obj
      [
        ("key", Json.Str e.key);
        ("engine", Json.Str (Engines.engine_name e.engine));
        ("solves", Json.Int e.solves);
        ("warm", Json.Bool warm);
        ("unroll_cache", Json.Str (if warm then "hit" else "miss"));
      ] )

let ledger_append t ~instance ~engine ~req ~warm ~verdict ~wall_s ~counters =
  match t.ledger with
  | None -> ()
  | Some path ->
    (try
       Ledger.append ~path
         (Ledger.make ~subcommand:"serve"
            ~argv:(Array.to_list Sys.argv)
            ~instance
            ~engine:(Engines.engine_name engine)
            ~options:(Req.options_string req ^ Printf.sprintf ",warm=%b" warm)
            ~verdict ~wall_s ~counters ~artifacts:[] ())
     with Sys_error msg ->
       Printf.eprintf "rtlsat serve: ledger append failed: %s\n%!" msg)

(* ---- operations ---- *)

let parse_engine t request =
  match str_field "engine" request with
  | None -> t.default_engine
  | Some name ->
    (match Engines.engine_of_name name with
     | Some e -> e
     | None -> failwith (Printf.sprintf "unknown engine %S" name))

let do_solve t ~id request =
  let circuit = require "circuit" (str_field "circuit" request) in
  let prop = require "prop" (str_field "prop" request) in
  let bound = require "bound" (int_field "bound" request) in
  let engine = parse_engine t request in
  let req = request_req request in
  let entry, warm = get_session t ~circuit ~prop ~engine ~req in
  let step = Engines.sweep_step ~req entry.sess ~bound in
  entry.solves <- entry.solves + 1;
  let r = step.Engines.sw_run in
  ledger_append t
    ~instance:(Registry.instance_name ~circuit ~prop ~bound)
    ~engine ~req ~warm
    ~verdict:(Report.verdict_string r.Engines.verdict)
    ~wall_s:r.Engines.time
    ~counters:
      [
        ("decisions", r.Engines.decisions);
        ("conflicts", r.Engines.conflicts);
        ("carried_clauses", step.Engines.sw_carried_clauses);
        ("carried_relations", step.Engines.sw_carried_relations);
      ];
  ok ~id
    (("op", Json.Str "solve")
     :: step_fields step
     @ [ session_fields entry ~warm ])

let do_sweep t ~id request =
  let circuit = require "circuit" (str_field "circuit" request) in
  let prop = require "prop" (str_field "prop" request) in
  let bounds =
    match Option.bind (Json.member "bounds" request) Json.get_list with
    | Some [] -> failwith "field \"bounds\" lists no bound"
    | Some l ->
      List.map (fun b -> require "bounds" (Json.get_int b)) l
    | None -> failwith "missing field \"bounds\""
  in
  let engine = parse_engine t request in
  let req = request_req request in
  let entry, warm = get_session t ~circuit ~prop ~engine ~req in
  let steps =
    List.map (fun bound -> Engines.sweep_step ~req entry.sess ~bound) bounds
  in
  entry.solves <- entry.solves + List.length steps;
  let wall_s =
    List.fold_left (fun a s -> a +. s.Engines.sw_run.Engines.time) 0.0 steps
  in
  let verdict = Report.verdict_string (Engines.sweep_verdict steps) in
  let carried =
    List.fold_left (fun a s -> max a s.Engines.sw_carried_clauses) 0 steps
  in
  ledger_append t
    ~instance:(Printf.sprintf "%s_%s" circuit prop)
    ~engine ~req ~warm ~verdict ~wall_s
    ~counters:
      [ ("bounds", List.length bounds); ("carried_clauses", carried) ];
  ok ~id
    [
      ("op", Json.Str "sweep");
      ("time_s", Json.Float wall_s);
      ("steps", Json.Arr (List.map (fun s -> Json.Obj (step_fields s)) steps));
      session_fields entry ~warm;
    ]

let do_stats t ~id =
  let sessions =
    Hashtbl.fold
      (fun _ e acc ->
         Json.Obj
           [
             ("key", Json.Str e.key);
             ("engine", Json.Str (Engines.engine_name e.engine));
             ("solves", Json.Int e.solves);
           ]
         :: acc)
      t.pool []
  in
  ok ~id
    [
      ("op", Json.Str "stats");
      ("served", Json.Int t.served);
      ("sessions", Json.Arr sessions);
    ]

let handle t request =
  let id = Option.value (Json.member "id" request) ~default:Json.Null in
  match str_field "op" request with
  | None -> (err ~id "missing field \"op\"", true)
  | Some "ping" -> (ok ~id [ ("op", Json.Str "ping") ], true)
  | Some "stats" -> (do_stats t ~id, true)
  | Some "shutdown" ->
    (ok ~id [ ("op", Json.Str "shutdown"); ("served", Json.Int t.served) ],
     false)
  | Some (("solve" | "sweep") as op) ->
    let resp =
      try
        let r = if op = "solve" then do_solve t ~id request
          else do_sweep t ~id request
        in
        t.served <- t.served + 1;
        r
      with
      | Failure msg -> err ~id msg
      | Invalid_argument msg -> err ~id msg
      | Not_found -> err ~id "not found"
    in
    (resp, true)
  | Some op -> (err ~id (Printf.sprintf "unknown op %S" op), true)

let handle_line t line =
  let resp, keep =
    match Json.of_string line with
    | request -> handle t request
    | exception Json.Parse_error msg ->
      (err ~id:Json.Null ("parse error: " ^ msg), true)
  in
  (Json.to_string resp, keep)

let run t ic oc =
  let continue = ref true in
  while !continue do
    match input_line ic with
    | exception End_of_file -> continue := false
    | line ->
      if String.trim line <> "" then begin
        let resp, keep = handle_line t line in
        output_string oc resp;
        output_char oc '\n';
        flush oc;
        if not keep then continue := false
      end
  done;
  t.served
