let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

(* the common branch hands back the caller's own boxed [inc]: a
   let-bound float result would be unboxed and reboxed, one allocation
   per bump *)
let bump heap act ~nvars inc v =
  act.(v) <- act.(v) +. inc;
  if act.(v) > 1e100 then begin
    for i = 0 to nvars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    Heap.bumped heap act v;
    inc *. 1e-100
  end
  else begin
    Heap.bumped heap act v;
    inc
  end

let restart_base = 100

type restarts = {
  mutable num : int;
  mutable left : int;  (* conflicts until the next restart is due *)
  mutable last_inproc : int;
}

let restarts ~conflicts =
  { num = 0; left = restart_base * luby 0; last_inproc = conflicts }

let conflict r = r.left <- r.left - 1
let due r = r.left <= 0

let restart r =
  r.num <- r.num + 1;
  r.left <- restart_base * luby r.num;
  r.num

let inprocess_due r ~every ~conflicts =
  every > 0
  && conflicts - r.last_inproc >= every
  &&
  (r.last_inproc <- conflicts;
   true)

let expired ~deadline cancel =
  Rtlsat_obs.Mono.now () > deadline
  || match cancel with Some c -> Atomic.get c | None -> false
