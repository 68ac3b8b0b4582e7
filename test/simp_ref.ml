(* CNF pre/inprocessing: SCC equivalence substitution, subsumption +
   self-subsuming resolution, failed-literal probing and bounded
   variable elimination with clause-recording model reconstruction.
   The pipeline owns no solver state: it maps a clause set to an
   equisatisfiable clause set plus the bookkeeping (repr, elim) needed
   to extend models back to the original variables. *)

let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0
let lit_not l = l lxor 1

type stats = {
  mutable subsumed : int;
  mutable strengthened : int;
  mutable eliminated : int;
  mutable probed : int;
  mutable equivs : int;
  mutable rounds : int;
}

let empty_stats () =
  { subsumed = 0; strengthened = 0; eliminated = 0; probed = 0; equivs = 0;
    rounds = 0 }

let add_stats acc s =
  acc.subsumed <- acc.subsumed + s.subsumed;
  acc.strengthened <- acc.strengthened + s.strengthened;
  acc.eliminated <- acc.eliminated + s.eliminated;
  acc.probed <- acc.probed + s.probed;
  acc.equivs <- acc.equivs + s.equivs;
  acc.rounds <- acc.rounds + s.rounds

type result = {
  r_clauses : int array list;
  r_units : int list;
  r_unsat : bool;
  r_repr : int array;
  r_elim : (int * int array list) list;
  r_stats : stats;
}

let map_lit repr l =
  let r = repr.(lit_var l) in
  if lit_sign l then r else lit_not r

(* 62-bit clause signature: bit per variable class; C subseteq D
   requires sig C land lnot (sig D) = 0 *)
let lit_bit l = 1 lsl (lit_var l mod 62)
let csig c = Array.fold_left (fun s l -> s lor lit_bit l) 0 c
let contains c l = Array.exists (fun x -> x = l) c

let run ?(elim = true) ?(frozen = fun _ -> false) ?(max_rounds = 3) ~nvars
    ~units ~clauses () =
  let st = empty_stats () in
  let assign = Array.make (max nvars 1) (-1) in
  let repr = Array.init (max nvars 1) (fun v -> 2 * v) in
  let elim_v = Array.make (max nvars 1) false in
  let elim_stack = ref [] in
  let unsat = ref false in
  let rec find_rep v =
    let r = repr.(v) in
    let rv = lit_var r in
    if rv = v then r
    else begin
      let rr = find_rep rv in
      let rr = if lit_sign r then rr else lit_not rr in
      repr.(v) <- rr;
      rr
    end
  in
  let map l =
    let r = find_rep (lit_var l) in
    if lit_sign l then r else lit_not r
  in
  let is_rep v = lit_var (find_rep v) = v in
  let lit_val l =
    let a = assign.(lit_var l) in
    if a < 0 then -1 else if lit_sign l then a else 1 - a
  in
  let assert_lit l =
    let l = map l in
    match lit_val l with
    | 1 -> ()
    | 0 -> unsat := true
    | _ -> assign.(lit_var l) <- (if lit_sign l then 1 else 0)
  in
  List.iter assert_lit units;

  (* rewrite every clause through repr and the top-level assignment,
     extracting new units to a fixpoint.  Worklist-driven: one full
     sweep builds a variable-occurrence index, then only the clauses
     containing a newly assigned variable are revisited — a global
     re-scan per extracted unit made this pass dominate the pipeline
     on bit-blast-sized databases *)
  let normalize cl_list =
    let cls = Array.of_list cl_list in
    let n = Array.length cls in
    let dead = Array.make (max n 1) false in
    let occ = Array.make (max nvars 1) [] in
    let q = Queue.create () in
    let enqueue_var v = List.iter (fun i -> Queue.add i q) occ.(v) in
    let process i =
      if not (dead.(i) || !unsat) then begin
        let lits =
          List.sort_uniq compare (List.map map (Array.to_list cls.(i)))
        in
        let sat_or_tauto =
          List.exists
            (fun l -> lit_val l = 1 || List.mem (lit_not l) lits)
            lits
        in
        if sat_or_tauto then dead.(i) <- true
        else
          match List.filter (fun l -> lit_val l <> 0) lits with
          | [] -> unsat := true
          | [ l ] ->
            dead.(i) <- true;
            assert_lit l;
            if not !unsat then enqueue_var (lit_var l)
          | lits ->
            cls.(i) <- Array.of_list lits;
            List.iter
              (fun l ->
                 let v = lit_var l in
                 occ.(v) <- i :: occ.(v))
              lits
      end
    in
    for i = 0 to n - 1 do process i done;
    while not (Queue.is_empty q || !unsat) do
      process (Queue.take q)
    done;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if not dead.(i) then out := cls.(i) :: !out
    done;
    !out
  in

  (* ---- binary-implication SCC collapsing ---- *)
  let scc_pass cl_list =
    let nn = 2 * nvars in
    let adj = Array.make (max nn 1) [] in
    let has_bin = ref false in
    List.iter
      (fun c ->
         if Array.length c = 2 then begin
           has_bin := true;
           adj.(lit_not c.(0)) <- c.(1) :: adj.(lit_not c.(0));
           adj.(lit_not c.(1)) <- c.(0) :: adj.(lit_not c.(1))
         end)
      cl_list;
    if not !has_bin then false
    else begin
      (* iterative Tarjan over the 2*nvars literal nodes *)
      let index = Array.make nn (-1) in
      let low = Array.make nn 0 in
      let on_stack = Array.make nn false in
      let comp = Array.make nn (-1) in
      let stack = ref [] in
      let counter = ref 0 and ncomp = ref 0 in
      let dfs = Stack.create () in
      for s = 0 to nn - 1 do
        if index.(s) < 0 then begin
          index.(s) <- !counter;
          low.(s) <- !counter;
          incr counter;
          stack := s :: !stack;
          on_stack.(s) <- true;
          Stack.push (s, ref adj.(s)) dfs;
          while not (Stack.is_empty dfs) do
            let v, rest = Stack.top dfs in
            match !rest with
            | w :: tl ->
              rest := tl;
              if index.(w) < 0 then begin
                index.(w) <- !counter;
                low.(w) <- !counter;
                incr counter;
                stack := w :: !stack;
                on_stack.(w) <- true;
                Stack.push (w, ref adj.(w)) dfs
              end
              else if on_stack.(w) && index.(w) < low.(v) then
                low.(v) <- index.(w)
            | [] ->
              ignore (Stack.pop dfs);
              if low.(v) = index.(v) then begin
                let stop = ref false in
                while not !stop do
                  match !stack with
                  | w :: tl ->
                    stack := tl;
                    on_stack.(w) <- false;
                    comp.(w) <- !ncomp;
                    if w = v then stop := true
                  | [] -> assert false
                done;
                incr ncomp
              end;
              (match Stack.top_opt dfs with
               | Some (p, _) -> if low.(v) < low.(p) then low.(p) <- low.(v)
               | None -> ())
          done
        end
      done;
      (* representatives are chosen per complementary SCC pair, lowest
         variable first, which keeps repr consistent under negation *)
      let changed = ref false in
      let scc_rep = Array.make !ncomp (-1) in
      for v = 0 to nvars - 1 do
        if (not !unsat) && (not elim_v.(v)) && is_rep v then begin
          let a = comp.(2 * v) and b = comp.(2 * v + 1) in
          if a = b then unsat := true
          else if scc_rep.(a) >= 0 then begin
            let r = scc_rep.(a) in
            if lit_var r <> v then begin
              let prev = assign.(v) in
              repr.(v) <- r;
              st.equivs <- st.equivs + 1;
              changed := true;
              if prev >= 0 then begin
                assign.(v) <- -1;
                assert_lit (if prev = 1 then 2 * v else (2 * v) + 1)
              end
            end
          end
          else begin
            scc_rep.(a) <- 2 * v;
            scc_rep.(b) <- (2 * v) + 1
          end
        end
      done;
      !changed
    end
  in

  (* ---- occurrence-list clause store for the remaining passes ---- *)
  let build lst =
    let cls = Array.of_list lst in
    let n = Array.length cls in
    let dead = Array.make (max n 1) false in
    let sigs = Array.make (max n 1) 0 in
    Array.iteri (fun i c -> sigs.(i) <- csig c) cls;
    let occ = Array.make (max (2 * nvars) 1) [] in
    Array.iteri
      (fun i c -> Array.iter (fun l -> occ.(l) <- i :: occ.(l)) c)
      cls;
    (cls, n, dead, sigs, occ)
  in

  (* ---- failed-literal probing (bounded unit-propagation lookahead) *)
  let probe_pass (cls, _n, dead, _sigs, occ) =
    let changed = ref false in
    let budget = ref 200_000 in
    let temp = Array.make (max nvars 1) (-1) in
    let tval l =
      let v = lit_var l in
      let a = if assign.(v) >= 0 then assign.(v) else temp.(v) in
      if a < 0 then -1 else if lit_sign l then a else 1 - a
    in
    let probe_lit l0 =
      let trail = ref [] in
      let conflict = ref false in
      let q = Queue.create () in
      let enq l =
        match tval l with
        | 1 -> ()
        | 0 -> conflict := true
        | _ ->
          temp.(lit_var l) <- (if lit_sign l then 1 else 0);
          trail := lit_var l :: !trail;
          Queue.push l q
      in
      enq l0;
      while (not !conflict) && (not (Queue.is_empty q)) && !budget > 0 do
        let l = Queue.pop q in
        List.iter
          (fun ci ->
             if (not !conflict) && not dead.(ci) then begin
               decr budget;
               let c = cls.(ci) in
               let pending = ref (-1) and cnt = ref 0 and sat = ref false in
               Array.iter
                 (fun x ->
                    match tval x with
                    | 1 -> sat := true
                    | -1 ->
                      incr cnt;
                      pending := x
                    | _ -> ())
                 c;
               if not !sat then
                 if !cnt = 0 then conflict := true
                 else if !cnt = 1 then enq !pending
             end)
          occ.(lit_not l)
      done;
      List.iter (fun v -> temp.(v) <- -1) !trail;
      !conflict
    in
    let v = ref 0 in
    while !v < nvars && !budget > 0 && not !unsat do
      let vv = !v in
      if
        assign.(vv) < 0 && (not elim_v.(vv)) && is_rep vv
        && (occ.(2 * vv) <> [] || occ.((2 * vv) + 1) <> [])
      then
        if probe_lit (2 * vv) then begin
          st.probed <- st.probed + 1;
          changed := true;
          assert_lit ((2 * vv) + 1)
        end
        else if probe_lit ((2 * vv) + 1) then begin
          st.probed <- st.probed + 1;
          changed := true;
          assert_lit (2 * vv)
        end;
      incr v
    done;
    !changed
  in

  (* ---- subsumption + self-subsuming resolution ---- *)
  let subsume_pass (cls, n, dead, sigs, occ) =
    let changed = ref false in
    let subset_except skip small big =
      Array.for_all (fun l -> l = skip || contains big l) small
    in
    for ci = 0 to n - 1 do
      if not dead.(ci) then begin
        let c = cls.(ci) in
        (* backward subsumption via the literal with the fewest occs *)
        let best = ref c.(0) in
        Array.iter
          (fun l ->
             if List.compare_lengths occ.(l) occ.(!best) < 0 then best := l)
          c;
        List.iter
          (fun di ->
             if di <> ci && not dead.(di) then begin
               let d = cls.(di) in
               if
                 Array.length d >= Array.length c
                 && sigs.(ci) land lnot sigs.(di) = 0
                 && contains d !best
                 && subset_except min_int c d
               then begin
                 dead.(di) <- true;
                 st.subsumed <- st.subsumed + 1;
                 changed := true
               end
             end)
          occ.(!best);
        (* self-subsumption: (C \ {l}) u {~l} <= D strengthens D *)
        if not dead.(ci) then
          Array.iter
            (fun l ->
               List.iter
                 (fun di ->
                    if di <> ci && not dead.(di) then begin
                      let d = cls.(di) in
                      if
                        Array.length d >= Array.length c
                        && sigs.(ci) land lnot sigs.(di) land lnot (lit_bit l)
                           = 0
                        && contains d (lit_not l)
                        && subset_except l c d
                      then begin
                        let d' =
                          Array.of_list
                            (List.filter
                               (fun x -> x <> lit_not l)
                               (Array.to_list d))
                        in
                        cls.(di) <- d';
                        sigs.(di) <- csig d';
                        st.strengthened <- st.strengthened + 1;
                        changed := true;
                        match Array.length d' with
                        | 0 -> unsat := true
                        | 1 ->
                          assert_lit d'.(0);
                          dead.(di) <- true
                        | _ -> ()
                      end
                    end)
                 occ.(lit_not l))
            c
      end
    done;
    !changed
  in

  (* ---- bounded variable elimination ---- *)
  let elim_pass (cls, _n, dead, _sigs, occ) =
    (* resolvents produced this pass are not indexed in occ, so any
       variable they mention is off-limits until the next round *)
    let touched = Array.make (max nvars 1) false in
    let new_clauses = ref [] in
    let occs_of l =
      List.filter (fun ci -> (not dead.(ci)) && contains cls.(ci) l) occ.(l)
    in
    for v = 0 to nvars - 1 do
      if
        (not !unsat) && assign.(v) < 0 && (not elim_v.(v)) && (not (frozen v))
        && is_rep v && not touched.(v)
      then begin
        let posc = occs_of (2 * v) and negc = occs_of ((2 * v) + 1) in
        let np = List.length posc and nn = List.length negc in
        if (np > 0 || nn > 0) && np * nn <= 16 && np + nn <= 10 then begin
          let resolve ci di =
            let lits = ref [] in
            Array.iter
              (fun l -> if lit_var l <> v then lits := l :: !lits)
              cls.(ci);
            Array.iter
              (fun l -> if lit_var l <> v then lits := l :: !lits)
              cls.(di);
            let lits = List.sort_uniq compare !lits in
            if List.exists (fun l -> List.mem (lit_not l) lits) lits then None
            else Some lits
          in
          let resolvents = ref [] and ok = ref true in
          List.iter
            (fun ci ->
               List.iter
                 (fun di ->
                    if !ok then
                      match resolve ci di with
                      | None -> ()
                      | Some lits ->
                        if List.length lits > 16 then ok := false
                        else resolvents := lits :: !resolvents)
                 negc)
            posc;
          if !ok && List.length !resolvents <= np + nn then begin
            let saved = List.map (fun ci -> cls.(ci)) (posc @ negc) in
            List.iter (fun ci -> dead.(ci) <- true) (posc @ negc);
            elim_stack := (v, saved) :: !elim_stack;
            elim_v.(v) <- true;
            st.eliminated <- st.eliminated + 1;
            List.iter
              (fun lits ->
                 List.iter (fun l -> touched.(lit_var l) <- true) lits;
                 match lits with
                 | [] -> unsat := true
                 | [ l ] -> assert_lit l
                 | _ -> new_clauses := Array.of_list lits :: !new_clauses)
              !resolvents
          end
        end
      end
    done;
    !new_clauses
  in

  (* ---- driver ---- *)
  let cur = ref (normalize clauses) in
  let continue_ = ref true in
  while !continue_ && (not !unsat) && st.rounds < max_rounds do
    st.rounds <- st.rounds + 1;
    let changed = ref false in
    if scc_pass !cur then begin
      changed := true;
      cur := normalize !cur
    end;
    if not !unsat then begin
      let ((cls, n, dead, _, _) as db) = build !cur in
      if subsume_pass db then changed := true;
      if (not !unsat) && probe_pass db then changed := true;
      let elim_before = st.eliminated in
      let fresh = if elim && not !unsat then elim_pass db else [] in
      if st.eliminated > elim_before then changed := true;
      let alive = ref fresh in
      for i = n - 1 downto 0 do
        if not dead.(i) then alive := cls.(i) :: !alive
      done;
      (* a pass that only asserted units still needs renormalizing *)
      cur := normalize !alive
    end;
    continue_ := !changed
  done;

  (* path-compress repr fully before publishing it *)
  for v = 0 to nvars - 1 do
    ignore (find_rep v)
  done;
  let units_out = ref [] in
  for v = nvars - 1 downto 0 do
    if assign.(v) = 1 then units_out := (2 * v) :: !units_out
    else if assign.(v) = 0 then units_out := ((2 * v) + 1) :: !units_out
  done;
  {
    r_clauses = (if !unsat then [] else !cur);
    r_units = (if !unsat then [] else !units_out);
    r_unsat = !unsat;
    r_repr = repr;
    r_elim = !elim_stack;
    r_stats = st;
  }

let extend_model r model =
  let lit_true l =
    let l = map_lit r.r_repr l in
    if lit_sign l then model.(lit_var l) else not model.(lit_var l)
  in
  (* most recently eliminated first: its saved clauses only mention
     variables that were still present when it was eliminated *)
  List.iter
    (fun (v, saved) ->
       let forced =
         List.exists
           (fun c ->
              contains c (2 * v)
              && Array.for_all (fun l -> lit_var l = v || not (lit_true l)) c)
           saved
       in
       model.(v) <- forced)
    r.r_elim;
  Array.iteri
    (fun v rl -> if rl <> 2 * v then model.(v) <- lit_true (2 * v))
    r.r_repr
