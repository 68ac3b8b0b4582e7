type side = {
  file : string;
  schema : string option;
  verdict : string option;
  keys : string array;
  phases : (string * float) list;
  counters : (string * int) list;
}

type divergence = {
  index : int;
  older : string option;
  newer : string option;
}

type t = {
  old_side : side;
  new_side : side;
  first : divergence option;
  verdict_diverged : bool;
}

(* canonical rendering of one key event: a stable field whitelist per
   kind, so alignment ignores noisy fields (queue sizes, timestamps)
   but still catches a different variable, arm or learned length *)
let key_fields = function
  | "decide" -> [ "kind"; "var"; "lvl" ]
  | "split" -> [ "var"; "name"; "lo"; "hi"; "mid"; "arm" ]
  | "conflict" -> [ "lvl"; "bt"; "len" ]
  | _ -> []

let render_key ev j =
  let b = Buffer.create 48 in
  Buffer.add_string b ev;
  Buffer.add_char b '(';
  List.iteri
    (fun i name ->
       match Json.member name j with
       | None -> ()
       | Some v ->
         if i > 0 && Buffer.length b > String.length ev + 1 then
           Buffer.add_char b ' ';
         Buffer.add_string b name;
         Buffer.add_char b '=';
         Buffer.add_string b
           (match v with Json.Str s -> s | v -> Json.to_string v))
    (key_fields ev);
  Buffer.add_char b ')';
  Buffer.contents b

(* the profiler's fold gives the schema, verdict, phases and event
   counts; the tap adds the key sequence and the [done] totals *)
let load_side file =
  let keys = ref [] in
  let done_counters = ref [] in
  let tap j =
    match Json.member "ev" j with
    | Some (Json.Str (("decide" | "split" | "conflict") as ev)) ->
      keys := render_key ev j :: !keys
    | Some (Json.Str "done") ->
      done_counters :=
        List.filter_map
          (fun name ->
             match Json.member name j with
             | Some (Json.Int n) -> Some (name, n)
             | _ -> None)
          [ "conflicts"; "decisions" ]
    | _ -> ()
  in
  let p = Forensics.profile_with ~tap (fun r -> Trace.read_file r file) in
  let counters =
    !done_counters
    @ List.sort compare
        (List.filter_map
           (fun (ev, n) ->
              match ev with
              | "decide" | "split" | "conflict" | "restart" | "icp_stall" ->
                Some ("ev." ^ ev, n)
              | _ -> None)
           p.Forensics.pf_events)
  in
  {
    file;
    schema = p.Forensics.pf_schema;
    verdict = p.Forensics.pf_result;
    keys = Array.of_list (List.rev !keys);
    phases = p.Forensics.pf_phases;
    counters;
  }

let first_divergence a b =
  let na = Array.length a.keys and nb = Array.length b.keys in
  let n = min na nb in
  let rec scan i =
    if i < n then
      if String.equal a.keys.(i) b.keys.(i) then scan (i + 1)
      else Some { index = i; older = Some a.keys.(i); newer = Some b.keys.(i) }
    else if na = nb then None
    else
      (* identical prefix, one side kept searching: the divergence is
         the first event the shorter side never made *)
      Some
        {
          index = n;
          older = (if na > n then Some a.keys.(n) else None);
          newer = (if nb > n then Some b.keys.(n) else None);
        }
  in
  scan 0

let diff ~old_file ~new_file =
  let old_side = load_side old_file in
  let new_side = load_side new_file in
  {
    old_side;
    new_side;
    first = first_divergence old_side new_side;
    verdict_diverged = old_side.verdict <> new_side.verdict;
  }

let exit_code d = if d.verdict_diverged then 1 else 0

let opt_str = function Some s -> s | None -> "-"

let print fmt d =
  let o = d.old_side and n = d.new_side in
  Format.fprintf fmt "trace-diff: %s vs %s@." o.file n.file;
  Format.fprintf fmt "  schema:  %s | %s@." (opt_str o.schema) (opt_str n.schema);
  Format.fprintf fmt "  verdict: %s | %s%s@." (opt_str o.verdict) (opt_str n.verdict)
    (if d.verdict_diverged then "   DIVERGED" else "");
  Format.fprintf fmt "  key events (decide/split/conflict): %d | %d@."
    (Array.length o.keys) (Array.length n.keys);
  (match d.first with
   | None -> Format.fprintf fmt "  key sequences identical@."
   | Some dv ->
     Format.fprintf fmt "  first divergence at key event #%d:@." dv.index;
     Format.fprintf fmt "    old: %s@."
       (match dv.older with Some k -> k | None -> "(trace ends)");
     Format.fprintf fmt "    new: %s@."
       (match dv.newer with Some k -> k | None -> "(trace ends)"));
  (* the names whose values differ between the two sides, a missing
     name reading as [zero] *)
  let deltas title ~zero ~differ ~row a b =
    let get l k = Option.value (List.assoc_opt k l) ~default:zero in
    let names = List.sort_uniq compare (List.map fst a @ List.map fst b) in
    match List.filter (fun k -> differ (get a k) (get b k)) names with
    | [] -> ()
    | names ->
      Format.fprintf fmt "  %s:@." title;
      List.iter (fun k -> row k (get a k) (get b k)) names
  in
  (* a delta below half a unit of the last printed digit would print
     as +0.0000 or -0.0000 *)
  deltas "phase deltas (self_s, new-old)" o.phases n.phases ~zero:0.0
    ~differ:(fun a b -> Float.abs (b -. a) >= 0.5e-4)
    ~row:(fun name a b ->
        Format.fprintf fmt "    %-18s %+10.4f  (%.4f -> %.4f)@." name (b -. a)
          a b);
  deltas "counter deltas (new-old)" o.counters n.counters ~zero:0 ~differ:( <> )
    ~row:(fun name a b ->
        Format.fprintf fmt "    %-18s %+10d  (%d -> %d)@." name (b - a) a b)
