(* CNF pre/inprocessing: SCC equivalence substitution, subsumption +
   self-subsuming resolution, failed-literal probing and bounded
   variable elimination with clause-recording model reconstruction.
   The pipeline owns no solver state: it maps a clause set to an
   equisatisfiable clause set plus the bookkeeping (repr, elim) needed
   to extend models back to the original variables.

   The hot loops are written to allocate almost nothing: clauses live
   in one array (a dead clause is the shared empty array), occurrences
   in one flat offsets/data index per round, and every rewrite goes
   through a reused int buffer.  Clauses are kept sorted and duplicate
   free between passes, which the subset tests and the resolvent merge
   rely on. *)

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

let csig (c : int array) =
  let s = ref 0 in
  for i = 0 to Array.length c - 1 do
    s := !s lor lit_bit c.(i)
  done;
  !s

let contains (c : int array) (l : int) =
  let n = Array.length c in
  let i = ref 0 in
  while !i < n && c.(!i) <> l do incr i done;
  !i < n

(* every literal of sorted [c] except [skip] occurs in sorted [d] *)
let subset_except (skip : int) (c : int array) (d : int array) =
  let nc = Array.length c and nd = Array.length d in
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !i < nc do
    let x = c.(!i) in
    if x = skip then incr i
    else begin
      while !j < nd && d.(!j) < x do incr j done;
      if !j < nd && d.(!j) = x then begin
        incr i;
        incr j
      end
      else ok := false
    end
  done;
  !ok

(* the dead-clause marker of the clause store; live clauses always
   have at least two literals once the first normalize has run *)
let dead_clause : int array = [||]

(* how many clause visits pass between two polls of [stop] *)
let poll_every = 4096

let run ?(elim = true) ?(frozen = fun _ -> false) ?(max_rounds = 3)
    ?(stop = fun () -> false) ~nvars ~units ~clauses () =
  let st = empty_stats () in
  let nv = max nvars 1 in
  let assign = Array.make nv (-1) in
  let repr = Array.init nv (fun v -> 2 * v) in
  let elim_v = Array.make nv false in
  let elim_stack = ref [] in
  let unsat = ref false in
  let stopped = ref false in
  let poll () =
    if (not !stopped) && stop () then stopped := true;
    !stopped
  in
  (* variables assigned or substituted since the last normalize: only
     clauses mentioning one of them can have changed *)
  let dirty = Bytes.make nv '\000' in
  let any_dirty = ref false in
  let mark_dirty v =
    Bytes.set dirty v '\001';
    any_dirty := true
  in
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
    | _ ->
      assign.(lit_var l) <- (if lit_sign l then 1 else 0);
      mark_dirty (lit_var l)
  in
  List.iter assert_lit units;

  (* the clause store: [db.(0 .. n_db-1)], input order preserved *)
  let db = ref (Array.of_list clauses) in
  let n_db = ref (Array.length !db) in
  (* one flat index reused by every pass: [idx_dat.(idx_off.(k) ..
     idx_off.(k+1)-1)] are the clauses of key [k] (a variable in
     normalize, a literal elsewhere) *)
  let idx_off = Array.make ((2 * nv) + 1) 0 in
  let idx_dat = ref [||] in
  (* build the index of [db] over keys [0 .. nkeys-1]; each key's
     clauses come out newest (highest index) first *)
  let build_index nkeys key_of =
    let db = !db and n = !n_db in
    Array.fill idx_off 0 (nkeys + 1) 0;
    for i = 0 to n - 1 do
      let c = db.(i) in
      for j = 0 to Array.length c - 1 do
        let k = key_of c.(j) in
        idx_off.(k) <- idx_off.(k) + 1
      done
    done;
    (* running sums: [idx_off.(k)] is where key [k]'s clauses end, and
       the fill below counts each key back down to its start *)
    for k = 1 to nkeys do
      idx_off.(k) <- idx_off.(k) + idx_off.(k - 1)
    done;
    let total = idx_off.(nkeys) in
    if Array.length !idx_dat < total then idx_dat := Array.make total 0;
    let dat = !idx_dat in
    for i = 0 to n - 1 do
      let c = db.(i) in
      for j = 0 to Array.length c - 1 do
        let k = key_of c.(j) in
        let p = idx_off.(k) - 1 in
        idx_off.(k) <- p;
        dat.(p) <- i
      done
    done
  in

  (* ---- normalize ----
     rewrite clauses through repr and the top-level assignment,
     extracting new units to the unit-propagation fixpoint.  The first
     call rewrites every clause; later ones only those mentioning a
     dirty variable, since every other clause is already sorted,
     duplicate free, over representatives and unassigned literals.  A
     unit derived here can reach clauses scanned earlier: only then is
     a variable index built and the clauses of the new units
     revisited.  The fixpoint does not depend on visit order. *)
  let buf = ref (Array.make 64 0) in
  let new_units = Array.make nv 0 in
  let n_new = ref 0 in
  let first_normalize = ref true in
  (* rewrite clause [i]; a derived unit is queued on [new_units] *)
  let process i =
    let db = !db in
    let c = db.(i) in
    let len = Array.length c in
    if Array.length !buf < len then buf := Array.make (2 * len) 0;
    let b = !buf in
    if len <= 64 then
      (* insertion sort of the mapped literals: linear on the common
         already-sorted clause *)
      for j = 0 to len - 1 do
        let x = map c.(j) in
        let p = ref j in
        while !p > 0 && b.(!p - 1) > x do
          b.(!p) <- b.(!p - 1);
          decr p
        done;
        b.(!p) <- x
      done
    else begin
      let a = Array.map map c in
      Array.sort Int.compare a;
      Array.blit a 0 b 0 len
    end;
    (* drop duplicates and false literals; a true literal or a
       complementary pair (adjacent once sorted) kills the clause *)
    let m = ref 0 and prev = ref (-1) and sat = ref false and j = ref 0 in
    while (not !sat) && !j < len do
      let x = b.(!j) in
      if x <> !prev then begin
        if x = !prev lxor 1 then sat := true
        else begin
          match lit_val x with
          | 1 -> sat := true
          | 0 -> ()
          | _ ->
            b.(!m) <- x;
            incr m
        end;
        prev := x
      end;
      incr j
    done;
    if !sat then db.(i) <- dead_clause
    else
      match !m with
      | 0 -> unsat := true
      | 1 ->
        db.(i) <- dead_clause;
        assert_lit b.(0);
        if not !unsat then begin
          new_units.(!n_new) <- lit_var b.(0);
          incr n_new
        end
      | m ->
        let same = ref (m = len) and k = ref 0 in
        while !same && !k < m do
          if b.(!k) <> c.(!k) then same := false;
          incr k
        done;
        if not !same then db.(i) <- Array.sub b 0 m
  in
  let mentions_dirty (c : int array) =
    let n = Array.length c in
    let j = ref 0 in
    while !j < n && Bytes.get dirty (lit_var c.(!j)) = '\000' do
      incr j
    done;
    !j < n
  in
  let normalize () =
    if !first_normalize || !any_dirty then begin
      let full = !first_normalize in
      first_normalize := false;
      n_new := 0;
      let i = ref 0 in
      while !i < !n_db && not !unsat do
        let c = !db.(!i) in
        if full || (Array.length c > 0 && mentions_dirty c) then process !i;
        incr i
      done;
      if !n_new > 0 && not !unsat then begin
        build_index nv lit_var;
        let dat = !idx_dat and head = ref 0 in
        while !head < !n_new && not !unsat do
          let v = new_units.(!head) in
          incr head;
          let p = ref idx_off.(v) in
          while !p < idx_off.(v + 1) && not !unsat do
            let ci = dat.(!p) in
            if Array.length !db.(ci) > 0 then process ci;
            incr p
          done
        done
      end;
      (* compact the survivors, order preserved *)
      let db = !db and k = ref 0 in
      for i = 0 to !n_db - 1 do
        let c = db.(i) in
        if Array.length c > 0 then begin
          db.(!k) <- c;
          incr k
        end
      done;
      Array.fill db !k (!n_db - !k) dead_clause;
      n_db := !k;
      Bytes.fill dirty 0 nv '\000';
      any_dirty := false
    end
  in

  (* ---- binary-implication SCC collapsing ---- *)
  let scc_pass () =
    let nn = 2 * nvars in
    let db = !db and n = !n_db in
    (* adjacency of the implication graph, flat: ~a -> b, ~b -> a *)
    let off = Array.make (nn + 1) 0 in
    let nbin = ref 0 in
    for i = 0 to n - 1 do
      let c = db.(i) in
      if Array.length c = 2 then begin
        incr nbin;
        off.(lit_not c.(0)) <- off.(lit_not c.(0)) + 1;
        off.(lit_not c.(1)) <- off.(lit_not c.(1)) + 1
      end
    done;
    if !nbin = 0 then false
    else begin
      for k = 1 to nn do
        off.(k) <- off.(k) + off.(k - 1)
      done;
      let adj = Array.make (2 * !nbin) 0 in
      for i = 0 to n - 1 do
        let c = db.(i) in
        if Array.length c = 2 then begin
          let a = lit_not c.(0) and b = lit_not c.(1) in
          off.(a) <- off.(a) - 1;
          adj.(off.(a)) <- c.(1);
          off.(b) <- off.(b) - 1;
          adj.(off.(b)) <- c.(0)
        end
      done;
      (* iterative Tarjan over the 2*nvars literal nodes; a visited
         node without a component is on the Tarjan stack *)
      let index = Array.make nn (-1) in
      let low = Array.make nn 0 in
      let comp = Array.make nn (-1) in
      let next = Array.make nn 0 in
      let tstack = Array.make nn 0 and tsp = ref 0 in
      let dfs = Array.make nn 0 and dsp = ref 0 in
      let counter = ref 0 and ncomp = ref 0 in
      let visit w =
        index.(w) <- !counter;
        low.(w) <- !counter;
        incr counter;
        tstack.(!tsp) <- w;
        incr tsp;
        next.(w) <- off.(w);
        dfs.(!dsp) <- w;
        incr dsp
      in
      for s = 0 to nn - 1 do
        if index.(s) < 0 then begin
          visit s;
          while !dsp > 0 do
            let v = dfs.(!dsp - 1) in
            if next.(v) < off.(v + 1) then begin
              let w = adj.(next.(v)) in
              next.(v) <- next.(v) + 1;
              if index.(w) < 0 then visit w
              else if comp.(w) < 0 && index.(w) < low.(v) then
                low.(v) <- index.(w)
            end
            else begin
              decr dsp;
              if low.(v) = index.(v) then begin
                let fin = ref false in
                while not !fin do
                  decr tsp;
                  let w = tstack.(!tsp) in
                  comp.(w) <- !ncomp;
                  if w = v then fin := true
                done;
                incr ncomp
              end;
              if !dsp > 0 then begin
                let p = dfs.(!dsp - 1) in
                if low.(v) < low.(p) then low.(p) <- low.(v)
              end
            end
          done
        end
      done;
      (* representatives are chosen per complementary SCC pair, lowest
         variable first, which keeps repr consistent under negation *)
      let changed = ref false in
      let scc_rep = Array.make !ncomp (-1) in
      for v = 0 to nvars - 1 do
        if (not !unsat) && (not elim_v.(v)) && is_rep v then begin
          let a = comp.(2 * v) and b = comp.((2 * v) + 1) in
          if a = b then unsat := true
          else if scc_rep.(a) >= 0 then begin
            let r = scc_rep.(a) in
            if lit_var r <> v then begin
              let prev = assign.(v) in
              repr.(v) <- r;
              mark_dirty v;
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

  (* ---- the per-round clause store: [db] itself, one signature per
     clause and the literal index (newest clause first per literal);
     the index is never updated within a round, so every pass checks
     that a listed clause is alive and still holds the literal *)
  let sigs = ref [||] in
  let build () =
    let db = !db and n = !n_db in
    if Array.length !sigs < n then sigs := Array.make n 0;
    let sg = !sigs in
    for i = 0 to n - 1 do
      sg.(i) <- csig db.(i)
    done;
    build_index (2 * nv) Fun.id
  in
  let occ_count l = idx_off.(l + 1) - idx_off.(l) in

  (* ---- subsumption + self-subsuming resolution ---- *)
  let subsume_pass () =
    let cls = !db and n = !n_db and sigs = !sigs and dat = !idx_dat in
    let changed = ref false in
    let visits = ref 0 and next_poll = ref poll_every in
    let i = ref 0 in
    while !i < n && not !stopped do
      let ci = !i in
      let c = cls.(ci) in
      let lc = Array.length c in
      (* a dead clause is empty, so [len d >= lc] also checks d is
         alive *)
      if lc > 0 then begin
        let sc = sigs.(ci) in
        (* backward subsumption via the literal with the fewest occs *)
        let best = ref c.(0) in
        for j = 1 to lc - 1 do
          if occ_count c.(j) < occ_count !best then best := c.(j)
        done;
        let best = !best in
        for p = idx_off.(best) to idx_off.(best + 1) - 1 do
          let di = dat.(p) in
          if di <> ci then begin
            let d = cls.(di) in
            if
              Array.length d >= lc
              && sc land lnot sigs.(di) = 0
              && contains d best
              && subset_except (-1) c d
            then begin
              cls.(di) <- dead_clause;
              st.subsumed <- st.subsumed + 1;
              changed := true
            end
          end
        done;
        visits := !visits + occ_count best;
        (* self-subsumption: (C \ {l}) u {~l} <= D strengthens D *)
        for j = 0 to lc - 1 do
          let l = c.(j) in
          let nl = lit_not l in
          let mask = sc land lnot (lit_bit l) in
          for p = idx_off.(nl) to idx_off.(nl + 1) - 1 do
            let di = dat.(p) in
            if di <> ci then begin
              let d = cls.(di) in
              let ld = Array.length d in
              if
                ld >= lc
                && mask land lnot sigs.(di) = 0
                && contains d nl
                && subset_except l c d
              then begin
                let d' = Array.make (ld - 1) 0 in
                let k = ref 0 in
                for q = 0 to ld - 1 do
                  if d.(q) <> nl then begin
                    d'.(!k) <- d.(q);
                    incr k
                  end
                done;
                cls.(di) <- d';
                sigs.(di) <- csig d';
                st.strengthened <- st.strengthened + 1;
                changed := true;
                (* |D| >= |C| >= 2, so D' keeps at least one literal *)
                if ld = 2 then begin
                  assert_lit d'.(0);
                  cls.(di) <- dead_clause
                end
              end
            end
          done;
          visits := !visits + occ_count nl
        done;
        if !visits >= !next_poll then begin
          next_poll := !visits + poll_every;
          ignore (poll ())
        end
      end;
      incr i
    done;
    !changed
  in

  (* ---- failed-literal probing (bounded unit-propagation lookahead) *)
  let probe_q = Array.make nv 0 in
  let probe_pass () =
    let cls = !db and dat = !idx_dat in
    let changed = ref false in
    let budget = ref 200_000 in
    let next_poll = ref (200_000 - poll_every) in
    (* a probe assigns tentatively in [assign] itself and undoes every
       assignment before it returns; it queues each variable at most
       once, so the queue doubles as the trail to undo *)
    let probe_lit l0 =
      let conflict = ref false in
      let qh = ref 0 and qt = ref 1 in
      assign.(lit_var l0) <- (if lit_sign l0 then 1 else 0);
      probe_q.(0) <- l0;
      while (not !conflict) && !qh < !qt && !budget > 0 do
        let l = probe_q.(!qh) in
        incr qh;
        let nl = lit_not l in
        let p = ref idx_off.(nl) and pe = idx_off.(nl + 1) in
        while (not !conflict) && !p < pe do
          let c = cls.(dat.(!p)) in
          let lc = Array.length c in
          if lc > 0 then begin
            decr budget;
            (* stop at a true literal or a second open one: either way
               the clause propagates nothing *)
            let sat = ref false and cnt = ref 0 and pending = ref (-1) in
            let j = ref 0 in
            while (not !sat) && !cnt < 2 && !j < lc do
              let x = c.(!j) in
              (match lit_val x with
               | 1 -> sat := true
               | -1 ->
                 incr cnt;
                 pending := x
               | _ -> ());
              incr j
            done;
            if not !sat then
              if !cnt = 0 then conflict := true
              else if !cnt = 1 then begin
                let x = !pending in
                assign.(lit_var x) <- (if lit_sign x then 1 else 0);
                probe_q.(!qt) <- x;
                incr qt
              end
          end;
          incr p
        done
      done;
      for k = 0 to !qt - 1 do
        assign.(lit_var probe_q.(k)) <- -1
      done;
      !conflict
    in
    let v = ref 0 in
    while !v < nvars && !budget > 0 && (not !unsat) && not !stopped do
      let vv = !v in
      if
        assign.(vv) < 0 && (not elim_v.(vv)) && is_rep vv
        && idx_off.((2 * vv) + 2) > idx_off.(2 * vv)
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
      if !budget <= !next_poll then begin
        next_poll := !budget - poll_every;
        ignore (poll ())
      end;
      incr v
    done;
    !changed
  in

  (* ---- bounded variable elimination ---- *)
  (* up to 16 resolvents of up to 16 literals each *)
  let res = Array.make (16 * 16) 0 and res_len = Array.make 16 0 in
  let posc = Array.make 11 0 and negc = Array.make 11 0 in
  (* resolve sorted [a] and [b] on [v] into resolvent slot [slot]:
     the resolvent's length, -1 for a tautology, 17 when too long *)
  let resolve v (a : int array) (b : int array) slot =
    let la = Array.length a and lb = Array.length b in
    let base = slot * 16 in
    let i = ref 0 and j = ref 0 and cnt = ref 0 and prev = ref (-1) in
    let taut = ref false in
    while (not !taut) && (!i < la || !j < lb) do
      let x =
        if !i < la && (!j >= lb || a.(!i) <= b.(!j)) then begin
          let x = a.(!i) in
          incr i;
          x
        end
        else begin
          let x = b.(!j) in
          incr j;
          x
        end
      in
      if lit_var x <> v && x <> !prev then begin
        if x = !prev lxor 1 then taut := true
        else begin
          if !cnt < 16 then res.(base + !cnt) <- x;
          incr cnt;
          prev := x
        end
      end
    done;
    if !taut then -1 else min !cnt 17
  in
  let elim_pass () =
    (* resolvents produced this pass are not indexed, so any variable
       they mention is off-limits until the next round *)
    let cls = !db and dat = !idx_dat in
    let touched = Bytes.make nv '\000' in
    let new_clauses = ref [] in
    let visits = ref 0 and next_poll = ref poll_every in
    (* the live clauses holding [l], index order, into [buf] from
       [k0]; gives up past a total of 10 *)
    let collect l (buf : int array) k0 =
      let k = ref k0 and p = ref idx_off.(l) and pe = idx_off.(l + 1) in
      while !k <= 10 && !p < pe do
        let ci = dat.(!p) in
        if contains cls.(ci) l then begin
          buf.(!k - k0) <- ci;
          incr k
        end;
        incr p
      done;
      visits := !visits + (!p - idx_off.(l));
      !k - k0
    in
    let v = ref 0 in
    while !v < nvars && not !stopped do
      let vv = !v in
      if
        (not !unsat) && assign.(vv) < 0 && (not elim_v.(vv))
        && (not (frozen vv)) && is_rep vv
        && Bytes.get touched vv = '\000'
      then begin
        let np = collect (2 * vv) posc 0 in
        let nn = if np > 10 then 11 else collect ((2 * vv) + 1) negc np in
        if (np > 0 || nn > 0) && np * nn <= 16 && np + nn <= 10 then begin
          let nres = ref 0 and ok = ref true in
          for a = 0 to np - 1 do
            for b = 0 to nn - 1 do
              if !ok then
                match resolve vv cls.(posc.(a)) cls.(negc.(b)) !nres with
                | -1 -> ()
                | 17 -> ok := false
                | len ->
                  res_len.(!nres) <- len;
                  incr nres
            done
          done;
          if !ok && !nres <= np + nn then begin
            let saved = ref [] in
            for b = nn - 1 downto 0 do
              saved := cls.(negc.(b)) :: !saved
            done;
            for a = np - 1 downto 0 do
              saved := cls.(posc.(a)) :: !saved
            done;
            for a = 0 to np - 1 do cls.(posc.(a)) <- dead_clause done;
            for b = 0 to nn - 1 do cls.(negc.(b)) <- dead_clause done;
            elim_stack := (vv, !saved) :: !elim_stack;
            elim_v.(vv) <- true;
            st.eliminated <- st.eliminated + 1;
            for r = !nres - 1 downto 0 do
              let base = r * 16 and len = res_len.(r) in
              for k = base to base + len - 1 do
                Bytes.set touched (lit_var res.(k)) '\001'
              done;
              match len with
              | 0 -> unsat := true
              | 1 -> assert_lit res.(base)
              | _ -> new_clauses := Array.sub res base len :: !new_clauses
            done
          end
        end;
        if !visits >= !next_poll then begin
          next_poll := !visits + poll_every;
          ignore (poll ())
        end
      end;
      incr v
    done;
    !new_clauses
  in

  (* survivors of the round in order, then the fresh resolvents *)
  let compact fresh =
    let old = !db and n = !n_db in
    let alive = ref 0 in
    for i = 0 to n - 1 do
      if Array.length old.(i) > 0 then incr alive
    done;
    let db' = Array.make (!alive + List.length fresh) dead_clause in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Array.length old.(i) > 0 then begin
        db'.(!k) <- old.(i);
        incr k
      end
    done;
    List.iter
      (fun c ->
         db'.(!k) <- c;
         incr k)
      fresh;
    db := db';
    n_db := !k
  in

  (* ---- driver ---- *)
  normalize ();
  let continue_ = ref true in
  while
    !continue_ && (not !unsat) && st.rounds < max_rounds && not (poll ())
  do
    st.rounds <- st.rounds + 1;
    let changed = ref false in
    if scc_pass () then begin
      changed := true;
      normalize ()
    end;
    if (not !unsat) && not (poll ()) then begin
      build ();
      if subsume_pass () then changed := true;
      if (not !unsat) && (not (poll ())) && probe_pass () then changed := true;
      let elim_before = st.eliminated in
      let fresh =
        if elim && (not !unsat) && not (poll ()) then elim_pass () else []
      in
      if st.eliminated > elim_before then changed := true;
      compact fresh;
      (* a pass that only asserted units still needs renormalizing *)
      normalize ()
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
  let clauses_out = ref [] in
  if not !unsat then
    for i = !n_db - 1 downto 0 do
      clauses_out := !db.(i) :: !clauses_out
    done;
  {
    r_clauses = !clauses_out;
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
