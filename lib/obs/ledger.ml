let schema = "rtlsat.run/1"
let runs_schema = "rtlsat.runs/1"

let default_path () =
  match Sys.getenv_opt "RTLSAT_LEDGER" with
  | Some p when p <> "" -> p
  | _ -> Filename.concat ".rtlsat" "ledger.jsonl"

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* run ids sort chronologically and stay unique across concurrent
   processes AND within one: UTC second + sub-second millis + pid +
   a per-process sequence.  Without the sequence, two records made in
   the same millisecond by the same process (a bench run or a serve
   loop appending back to back) collide. *)
let seq = ref 0

let run_id now pid =
  let n = !seq in
  incr seq;
  let tm = Unix.gmtime now in
  let ms = int_of_float ((now -. Float.of_int (int_of_float now)) *. 1000.0) in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02d.%03d-%d.%d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec (max 0 (min 999 ms)) pid n

let make ?now ?pid ~subcommand ~argv ~instance ~engine ~options ~verdict ~wall_s
    ~counters ~artifacts () =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("id", Json.Str (run_id now pid));
      ("ts", Json.Str (iso8601 now));
      ("subcommand", Json.Str subcommand);
      ("argv", Json.Arr (List.map (fun a -> Json.Str a) argv));
      ("instance", Json.Str instance);
      ("engine", Json.Str engine);
      ("options", Json.Str options);
      ("verdict", Json.Str verdict);
      ("wall_s", Json.Float wall_s);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
      ("artifacts", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) artifacts));
      ("env", Env.fingerprint_json ());
    ]

(* One record = one [single_write] of the whole rendered line on an
   [O_APPEND] fd.  The previous buffered-channel version wrote the
   record and the newline separately, so two concurrent appenders
   (two processes sharing a ledger, such as [rtlsat serve] and a CLI
   run) could interleave torn lines.  POSIX makes each O_APPEND write land at the
   then-current end of file, so whole-line writes never interleave;
   the loop only matters for the theoretical short-write case and
   keeps retrying at the file's (moved) end. *)
let append ~path record =
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let line = Json.to_string record ^ "\n" in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       let len = String.length line in
       let off = ref 0 in
       while !off < len do
         off := !off + Unix.single_write_substring fd line !off (len - !off)
       done)

type record = {
  id : string;
  ts : string;
  subcommand : string;
  instance : string;
  engine : string;
  options : string;
  verdict : string;
  wall_s : float;
  json : Json.t;
}

let str_field j name =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

let of_json j =
  match str_field j "schema" with
  | Some s when s = schema ->
    let get name = Option.value ~default:"" (str_field j name) in
    Some
      {
        id = get "id";
        ts = get "ts";
        subcommand = get "subcommand";
        instance = get "instance";
        engine = get "engine";
        options = get "options";
        verdict = get "verdict";
        wall_s =
          (match Option.bind (Json.member "wall_s" j) Json.get_float with
           | Some v -> v
           | None -> 0.0);
        json = j;
      }
  | _ -> None

let load ~path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
         let acc = ref [] in
         (try
            while true do
              let line = input_line ic in
              if String.trim line <> "" then
                (* a torn final line (crash mid-append) or any other
                   corruption is skipped, not fatal *)
                match Json.of_string line with
                | exception Json.Parse_error _ -> ()
                | j -> (match of_json j with Some r -> acc := r :: !acc | None -> ())
            done
          with End_of_file -> ());
         List.rev !acc)
  end

let filter ?instance ?engine ?last records =
  let keep want got = match want with None -> true | Some w -> w = got in
  let records =
    List.filter
      (fun r -> keep instance r.instance && keep engine r.engine)
      records
  in
  match last with
  | None -> records
  | Some n ->
    let drop = max 0 (List.length records - n) in
    List.filteri (fun i _ -> i >= drop) records

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let same_key a b =
  a.instance = b.instance && a.engine = b.engine && a.options = b.options

let group_median records r =
  median (List.filter_map (fun x -> if same_key x r then Some x.wall_s else None) records)

let slow records r = r.wall_s > group_median records r
