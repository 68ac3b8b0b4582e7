module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json

type lit = int

let pos v = 2 * v
let neg v = (2 * v) + 1
let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0
let lit_not l = l lxor 1

module Simp = Rtlsat_simplify.Simp

type t = {
  mutable nvars : int;
  mutable assign : int array;       (* var -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;       (* var -> clause index or -1 *)
  mutable phase : bool array;
  mutable activity : float array;
  mutable watches : int array array; (* l -> clauses to examine when l becomes true, newest last *)
  mutable wlen : int array;         (* l -> live length of watches.(l) *)
  mutable wspare : int array;       (* owned by no literal; swapped in by propagate *)
  mutable clauses : int array array;
  mutable nclauses : int;
  mutable trail : int array;
  mutable trail_len : int;
  mutable trail_lim : int array;    (* trail length where level k+1 starts *)
  mutable nlevels : int;            (* decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable conflicts : int;
  mutable propagations : int;       (* trail literals dequeued, total *)
  mutable learned : int;            (* conflict-learned lemmas, total *)
  mutable unsat_root : bool;
  heap : Heap.t;
  mutable seen : bool array;
  mutable abuf : int array;         (* analyze: learned tail, discovery order *)
  (* --- simplifier bookkeeping --- *)
  mutable repr_l : int array;       (* var -> representative literal, pos v if untouched *)
  mutable elim_v : bool array;      (* var eliminated by BVE *)
  mutable elim_stack : (int * int array list) list; (* most recent first *)
  simp : Simp.stats;                (* cumulative across simplify calls *)
}

(* multiplied by 1/0.95 where the hybrid kernel divides by 0.95: the
   two increments differ in the last bit from the second decay on, and
   each kernel's frozen reference (test/cdcl_ref.ml, test/state_ref.ml)
   pins its own form *)
let var_decay = 1.0 /. 0.95

let create () =
  {
    nvars = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    phase = Array.make 16 false;
    activity = Array.make 16 0.0;
    watches = Array.make 32 [||];
    wlen = Array.make 32 0;
    wspare = [||];
    clauses = Array.make 1024 [||];
    nclauses = 0;
    trail = Array.make 16 0;
    trail_len = 0;
    trail_lim = Array.make 16 0;
    nlevels = 0;
    qhead = 0;
    var_inc = 1.0;
    conflicts = 0;
    propagations = 0;
    learned = 0;
    unsat_root = false;
    heap = Heap.create ();
    seen = Array.make 16 false;
    abuf = Array.make 16 0;
    repr_l = Array.make 16 0;
    elim_v = Array.make 16 false;
    elim_stack = [];
    simp = Simp.empty_stats ();
  }

let grow_array a n dummy =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) dummy in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  t.assign <- grow_array t.assign t.nvars (-1);
  t.level <- grow_array t.level t.nvars 0;
  t.reason <- grow_array t.reason t.nvars (-1);
  t.phase <- grow_array t.phase t.nvars false;
  t.activity <- grow_array t.activity t.nvars 0.0;
  t.seen <- grow_array t.seen t.nvars false;
  t.abuf <- grow_array t.abuf t.nvars 0;
  t.watches <- grow_array t.watches (2 * t.nvars) [||];
  t.wlen <- grow_array t.wlen (2 * t.nvars) 0;
  t.trail <- grow_array t.trail t.nvars 0;
  t.repr_l <- grow_array t.repr_l t.nvars 0;
  t.elim_v <- grow_array t.elim_v t.nvars false;
  t.assign.(v) <- -1;
  t.reason.(v) <- -1;
  t.repr_l.(v) <- pos v;
  t.elim_v.(v) <- false;
  Heap.insert t.heap t.activity v;
  v

let n_vars t = t.nvars
let n_clauses t = t.nclauses
let n_conflicts t = t.conflicts
let n_learned t = t.learned

(* rewrite a literal through the equivalent-literal substitution left
   behind by simplify; identity while no simplification has run *)
let rep_lit t l =
  let r = t.repr_l.(lit_var l) in
  if lit_sign l then r else lit_not r

let simp_stats t = t.simp

let lit_value t l =
  let a = t.assign.(lit_var l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = t.nlevels

let enqueue t l reason =
  let v = lit_var l in
  assert (t.assign.(v) < 0);
  t.assign.(v) <- (if lit_sign l then 1 else 0);
  t.level.(v) <- t.nlevels;
  t.reason.(v) <- reason;
  t.phase.(v) <- lit_sign l;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

let backtrack t lvl =
  if t.nlevels > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_len - 1 downto bound do
      let v = lit_var t.trail.(i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- -1;
      Heap.insert t.heap t.activity v
    done;
    t.trail_len <- bound;
    t.qhead <- bound;
    t.nlevels <- lvl
  end

let new_decision_level t =
  if t.nlevels = Array.length t.trail_lim then
    t.trail_lim <- grow_array t.trail_lim (t.nlevels + 1) 0;
  t.trail_lim.(t.nlevels) <- t.trail_len;
  t.nlevels <- t.nlevels + 1

let watch t l ci =
  let n = t.wlen.(l) in
  if n = Array.length t.watches.(l) then
    t.watches.(l) <- grow_array t.watches.(l) (max 4 (n + 1)) 0;
  t.watches.(l).(n) <- ci;
  t.wlen.(l) <- n + 1

let attach_clause t ci =
  let c = t.clauses.(ci) in
  watch t (lit_not c.(0)) ci;
  watch t (lit_not c.(1)) ci

let add_clause_arr t c =
  if t.nclauses = Array.length t.clauses then
    t.clauses <- grow_array t.clauses (t.nclauses + 1) [||];
  t.clauses.(t.nclauses) <- c;
  t.nclauses <- t.nclauses + 1;
  attach_clause t (t.nclauses - 1);
  t.nclauses - 1

let add_clause t lits =
  (* adding clauses invalidates any model from a previous solve *)
  if t.nlevels > 0 then backtrack t 0;
  let lits = List.map (rep_lit t) lits in
  List.iter
    (fun l ->
       if t.elim_v.(lit_var l) then
         invalid_arg "Cdcl.add_clause: eliminated variable")
    lits;
  let lits = List.sort_uniq Int.compare lits in
  (* sorted, so a literal and its negation sit next to each other *)
  let rec tauto = function
    | a :: (b :: _ as rest) -> lit_var a = lit_var b || tauto rest
    | _ -> false
  in
  if not (tauto lits) && not (List.exists (fun l -> lit_value t l = 1) lits) then begin
    let lits = List.filter (fun l -> lit_value t l <> 0) lits in
    match lits with
    | [] -> t.unsat_root <- true
    | [ l ] -> enqueue t l (-1)
    | _ -> ignore (add_clause_arr t (Array.of_list lits))
  end

let fold_clauses f acc t =
  let acc = ref acc in
  for ci = 0 to t.nclauses - 1 do
    acc := f !acc t.clauses.(ci)
  done;
  !acc

let root_units t =
  (* the level-0 prefix of the trail *)
  let stop = if t.nlevels = 0 then t.trail_len else t.trail_lim.(0) in
  List.init stop (fun i -> t.trail.(i))

let root_conflict t = t.unsat_root

(* propagate; returns conflicting clause index or -1.  The watchers of
   [l] are read newest-first out of their old array while the kept ones
   are written, in visit order, into the spare array, which becomes
   [l]'s; on a conflict the unvisited ones follow in their old order.
   That is the order the list-based solver (test/cdcl_ref.ml) leaves,
   and the next visit order, so the search stays identical to it. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_len do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let falsified = lit_not l in
    let ws = t.watches.(l) and n = t.wlen.(l) in
    if Array.length t.wspare < n then t.wspare <- Array.make (Array.length ws) 0;
    let kept = t.wspare in
    t.watches.(l) <- kept;
    t.wspare <- ws;
    let j = ref 0 and i = ref (n - 1) in
    while !i >= 0 do
      let ci = ws.(!i) in
      decr i;
      let c = t.clauses.(ci) in
      if c.(0) = falsified then begin
        c.(0) <- c.(1);
        c.(1) <- falsified
      end;
      if lit_value t c.(0) = 1 then begin
        kept.(!j) <- ci;
        incr j
      end
      else begin
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && lit_value t c.(!k) = 0 do
          incr k
        done;
        if !k < len then begin
          c.(1) <- c.(!k);
          c.(!k) <- falsified;
          watch t (lit_not c.(1)) ci
        end
        else begin
          kept.(!j) <- ci;
          incr j;
          if lit_value t c.(0) = 0 then begin
            conflict := ci;
            for u = 0 to !i do
              kept.(!j + u) <- ws.(u)
            done;
            j := !j + !i + 1;
            i := -1
          end
          else enqueue t c.(0) ci
        end
      end
    done;
    t.wlen.(l) <- !j
  done;
  !conflict

(* Run the Simp pipeline over the whole clause database (problem and
   learned clauses alike, both are implied) and rebuild the solver from
   the result.  VSIDS activities and saved phases survive; the trail,
   watches and clause store are rebuilt.  [elim] enables bounded
   variable elimination — only sound while no later [add_clause] or
   assumption mentions an eliminated variable, so it defaults to off.
   Past [deadline] or once [cancel] is set, Simp cuts its remaining
   passes short; the database it hands back is still equisatisfiable. *)
let simplify ?(elim = false) ?(deadline = infinity) ?cancel t =
  backtrack t 0;
  if (not t.unsat_root) && propagate t >= 0 then t.unsat_root <- true;
  if not t.unsat_root then begin
    let units = root_units t in
    let clauses = fold_clauses (fun acc c -> Array.copy c :: acc) [] t in
    let stop () = Search.expired ~deadline cancel in
    let r = Simp.run ~elim ~stop ~nvars:t.nvars ~units ~clauses () in
    Simp.add_stats t.simp r.Simp.r_stats;
    if r.Simp.r_unsat then t.unsat_root <- true
    else begin
      (* compose the substitution and record eliminations *)
      for v = 0 to t.nvars - 1 do
        t.repr_l.(v) <- Simp.map_lit r.Simp.r_repr t.repr_l.(v)
      done;
      t.elim_stack <- r.Simp.r_elim @ t.elim_stack;
      List.iter (fun (v, _) -> t.elim_v.(v) <- true) r.Simp.r_elim;
      (* rebuild: clear trail and watches, re-enqueue the simplified
         units, re-attach the surviving clauses *)
      for i = t.trail_len - 1 downto 0 do
        let v = lit_var t.trail.(i) in
        t.assign.(v) <- -1;
        t.reason.(v) <- -1;
        Heap.insert t.heap t.activity v
      done;
      t.trail_len <- 0;
      t.nlevels <- 0;
      t.qhead <- 0;
      Array.fill t.wlen 0 (Array.length t.wlen) 0;
      t.nclauses <- 0;
      List.iter
        (fun l ->
           match lit_value t l with
           | 1 -> ()
           | 0 -> t.unsat_root <- true
           | _ -> enqueue t l (-1))
        r.Simp.r_units;
      if not t.unsat_root then
        List.iter (fun c -> ignore (add_clause_arr t c)) r.Simp.r_clauses;
      if (not t.unsat_root) && propagate t >= 0 then t.unsat_root <- true
    end
  end

(* After Sat: extend the model over representative variables to the
   substituted and eliminated ones.  Eliminated variables are rebuilt
   most-recent-first from their saved clauses (true iff some saved
   positive clause has every other literal false), so each saved
   clause only mentions variables already valued. *)
let reconstruct t =
  let lit_true l =
    let l = rep_lit t l in
    let av = t.assign.(lit_var l) = 1 in
    if lit_sign l then av else not av
  in
  List.iter
    (fun (v, saved) ->
       let forced =
         List.exists
           (fun c ->
              Array.exists (fun l -> l = pos v) c
              && Array.for_all (fun l -> lit_var l = v || not (lit_true l)) c)
           saved
       in
       t.assign.(v) <- (if forced then 1 else 0))
    t.elim_stack;
  for v = 0 to t.nvars - 1 do
    if t.repr_l.(v) <> pos v then
      t.assign.(v) <- (if lit_true (pos v) then 1 else 0)
  done

(* first-UIP analysis; returns (learned clause, backtrack level);
   invariant: reason clauses keep their implied literal at index 0.
   The clause is the UIP, then the lower-level literals newest-found
   first, then a highest-level literal swapped to index 1. *)
let analyze t confl0 =
  let seen = t.seen and buf = t.abuf in
  let n = ref 0 in
  let counter = ref 0 in
  let confl = ref confl0 in
  let start = ref 0 in
  let idx = ref (t.trail_len - 1) in
  let btlevel = ref 0 in
  let current = t.nlevels in
  let uip = ref (-1) in
  while !uip < 0 do
    let c = t.clauses.(!confl) in
    for i = !start to Array.length c - 1 do
      let q = c.(i) in
      let v = lit_var q in
      if (not seen.(v)) && t.level.(v) > 0 then begin
        seen.(v) <- true;
        t.var_inc <- Search.bump t.heap t.activity ~nvars:t.nvars t.var_inc v;
        if t.level.(v) >= current then incr counter
        else begin
          buf.(!n) <- q;
          incr n;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    while not seen.(lit_var t.trail.(!idx)) do
      decr idx
    done;
    let l = t.trail.(!idx) in
    decr idx;
    seen.(lit_var l) <- false;
    decr counter;
    if !counter = 0 then uip := lit_not l
    else begin
      confl := t.reason.(lit_var l);
      start := 1
    end
  done;
  let n = !n in
  let clause = Array.make (n + 1) !uip in
  for i = 1 to n do
    let q = buf.(n - i) in
    seen.(lit_var q) <- false;
    clause.(i) <- q
  done;
  if n > 1 then begin
    let besti = ref 1 in
    for i = 2 to n do
      if t.level.(lit_var clause.(i)) > t.level.(lit_var clause.(!besti)) then
        besti := i
    done;
    let tmp = clause.(1) in
    clause.(1) <- clause.(!besti);
    clause.(!besti) <- tmp
  end;
  (clause, !btlevel)

type outcome = Sat | Unsat | Timeout

let solve ?(deadline = infinity) ?(assumptions = []) ?(inprocess = 0)
    ?cancel ?(obs = Obs.disabled) t =
  let result = ref None in
  let decisions = ref 0 in
  let assumptions =
    Array.of_list
      (List.map
         (fun l ->
            if t.elim_v.(lit_var l) then
              invalid_arg "Cdcl.solve: assumption on eliminated variable";
            rep_lit t l)
         assumptions)
  in
  if t.unsat_root then result := Some Unsat
  else if propagate t >= 0 then begin
    t.unsat_root <- true;
    result := Some Unsat
  end;
  let restarts = Search.restarts ~conflicts:t.conflicts in
  let steps = ref 0 in
  while Option.is_none !result do
    incr steps;
    if obs.Obs.enabled && !steps land 255 = 0 then
      Obs.heartbeat_tick obs ~decisions:!decisions ~conflicts:t.conflicts
        ~propagations:t.propagations ~splits:0 ~lvl:(decision_level t);
    if !steps land 255 = 0 && Search.expired ~deadline cancel then begin
      backtrack t 0;
      result := Some Timeout
    end
    else begin
      let confl = propagate t in
      if confl >= 0 then begin
        t.conflicts <- t.conflicts + 1;
        Search.conflict restarts;
        if decision_level t = 0 then begin
          t.unsat_root <- true;
          result := Some Unsat
        end
        else begin
          let lvl = decision_level t in
          let clause, btlevel = analyze t confl in
          Obs.conflict obs ~lvl ~bt:btlevel ~len:(Array.length clause);
          backtrack t btlevel;
          t.var_inc <- t.var_inc *. var_decay;
          t.learned <- t.learned + 1;
          if Array.length clause = 1 then begin
            backtrack t 0;
            match lit_value t clause.(0) with
            | -1 -> enqueue t clause.(0) (-1)
            | 0 ->
              t.unsat_root <- true;
              result := Some Unsat
            | _ -> ()
          end
          else begin
            let ci = add_clause_arr t clause in
            if lit_value t clause.(0) = -1 then enqueue t clause.(0) ci
          end
        end
      end
      else if Search.due restarts then begin
        let num = Search.restart restarts in
        Obs.restart obs ~num ~conflicts:t.conflicts;
        backtrack t 0;
        (* inprocessing at restart boundaries: the trail is back at
           level 0, so the whole database can be rewritten; variable
           elimination stays off because assumptions and learned units
           must keep their variables addressable *)
        if Search.inprocess_due restarts ~every:inprocess ~conflicts:t.conflicts
        then begin
          simplify ~elim:false ~deadline ?cancel t;
          if t.unsat_root then result := Some Unsat
          else
            Array.iteri (fun i l -> assumptions.(i) <- rep_lit t l) assumptions
        end
      end
      else begin
        let lvl = t.nlevels in
        if lvl < Array.length assumptions then begin
          let al = assumptions.(lvl) in
          match lit_value t al with
          | 1 -> new_decision_level t (* hold a dummy level for this assumption *)
          | 0 -> result := Some Unsat
          | _ ->
            incr decisions;
            Obs.decide obs Obs.Assumption ~lvl:(decision_level t + 1)
              ~var:(lit_var al);
            new_decision_level t;
            enqueue t al (-1)
        end
        else begin
          let v = ref (-1) in
          while !v < 0 && not (Heap.is_empty t.heap) do
            let x = Heap.pop t.heap t.activity in
            if t.assign.(x) < 0 && (not t.elim_v.(x)) && t.repr_l.(x) = pos x
            then v := x
          done;
          let v = !v in
          if v < 0 then result := Some Sat
          else begin
            incr decisions;
            Obs.decide obs Obs.Activity ~lvl:(decision_level t + 1) ~var:v;
            new_decision_level t;
            enqueue t (if t.phase.(v) then pos v else neg v) (-1)
          end
        end
      end
    end
  done;
  if Obs.tracing obs then
    Obs.event obs "done"
      [
        ( "result",
          Json.Str
            (match !result with
             | Some Sat -> "sat"
             | Some Unsat -> "unsat"
             | _ -> "timeout") );
        ("conflicts", Json.Int t.conflicts);
        ("decisions", Json.Int !decisions);
      ];
  match !result with
  | Some Sat ->
    reconstruct t;
    Sat
  | Some r -> r
  | None -> assert false

let value t v = t.assign.(v) = 1

let model t = Array.init t.nvars (fun v -> t.assign.(v) = 1)
