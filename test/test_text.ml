(* Tests for the textual netlist format: golden parses, error
   reporting, and print/parse round-trips over the whole benchmark
   suite and random circuits. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Sim = Rtlsat_rtl.Sim
module Text = Rtlsat_rtl.Text
module Registry = Rtlsat_itc99.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let sample =
  {|# a tiny accumulating adder
circuit adder
input a 4
input b 4
reg acc 4 0
node s = add a b
node t = add s acc
node p = eq t acc
connect acc t
output sum t
output same p
|}

let test_parse_sample () =
  let c = Text.parse sample in
  check_str "name" "adder" c.Ir.cname;
  check_int "inputs" 2 (List.length (Ir.inputs c));
  check_int "regs" 1 (List.length (Ir.regs c));
  let t = N.find_output c "sum" in
  check_int "width" 4 t.Ir.width;
  (* simulate: acc starts 0; a=3 b=2 -> s=5 t=5; next acc=5 *)
  let a = N.find_input c "a" and b = N.find_input c "b" in
  let traces = Sim.run c ~inputs:[ [ (a, 3); (b, 2) ]; [ (a, 0); (b, 0) ] ] in
  check_int "cycle0 sum" 5 (Sim.value (List.nth traces 0) t);
  check_int "cycle1 sum" 5 (Sim.value (List.nth traces 1) t)

let test_roundtrip_sample () =
  let c = Text.parse sample in
  let printed = Text.to_string c in
  let reparsed = Text.parse printed in
  check_str "print . parse . print is stable" printed (Text.to_string reparsed)

let test_roundtrip_benchmarks () =
  List.iter
    (fun name ->
       let c, _ = Registry.build name in
       let printed = Text.to_string c in
       let reparsed = Text.parse printed in
       check_str (name ^ " roundtrip") printed (Text.to_string reparsed);
       (* and behaviours agree on a random trace *)
       let rng = Random.State.make [| 7 |] in
       let inputs circuit =
         List.init 20 (fun _ ->
             List.map
               (fun n -> (Ir.node_name n, Random.State.int rng (Ir.max_value n + 1)))
               (Ir.inputs circuit))
       in
       let drive circuit named =
         List.map
           (fun by_name ->
              List.map (fun (nm, v) -> (N.find_input circuit nm, v)) by_name)
           named
       in
       let named = inputs c in
       let t1 = Sim.run c ~inputs:(drive c named) in
       let t2 = Sim.run reparsed ~inputs:(drive reparsed named) in
       List.iteri
         (fun i (vals1, vals2) ->
            List.iter
              (fun (port, n1) ->
                 let n2 = N.find_output reparsed port in
                 check_int
                   (Printf.sprintf "%s %s cycle %d" name port i)
                   (Sim.value vals1 n1) (Sim.value vals2 n2))
              c.Ir.outputs)
         (List.combine t1 t2))
    Registry.circuits

(* [line], when given, is the line the message must name *)
let expect_failure ?line msg text =
  let prefix =
    match line with Some n -> Printf.sprintf "line %d: " n | None -> "line "
  in
  match Text.parse text with
  | exception Failure m ->
    check_bool (msg ^ ": mentions " ^ prefix) true
      (String.starts_with ~prefix m)
  | _ -> Alcotest.failf "%s: expected parse failure" msg

let test_errors () =
  expect_failure "no circuit" "input a 4\n";
  expect_failure "unknown node" "circuit c\nnode x = not y\n";
  expect_failure "duplicate" "circuit c\ninput a 1\ninput a 1\n";
  expect_failure "bad op" "circuit c\ninput a 1\nnode x = frob a\n";
  expect_failure "bad int" "circuit c\ninput a four\n";
  expect_failure "width mismatch" "circuit c\ninput a 2\ninput b 3\nnode x = add a b\n";
  expect_failure "garbage" "circuit c\nwibble\n";
  expect_failure "empty" "";
  expect_failure "arity" "circuit c\ninput a 1\nnode x = xor a\n";
  (* a builder's Invalid_argument is a located failure, not a crash *)
  expect_failure ~line:3 "input too wide" "circuit c\ninput b 2\ninput a 625\n";
  expect_failure ~line:3 "reg init too big" "circuit c\ninput tick 1\nreg r 3 9\n"

let test_comments_and_blanks () =
  let c = Text.parse "  \n# hello\ncircuit c # trailing\ninput a 3 # also\n" in
  check_int "one input" 1 (List.length (Ir.inputs c))

(* property: random combinational circuits round-trip and simulate
   identically *)
let gen_circuit seed =
  let rng = Random.State.make [| seed |] in
  let c = N.create "rand" in
  let a = N.input c ~name:"a" 4 and b = N.input c ~name:"b" 4 in
  let words = ref [ a; b ] in
  let bools = ref [] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for _ = 1 to 15 do
    match Random.State.int rng 10 with
    | 0 -> words := N.add c (pick !words) (pick !words) :: !words
    | 1 -> words := N.sub c (pick !words) (pick !words) :: !words
    | 2 ->
      bools :=
        N.cmp c (pick [ Ir.Eq; Ir.Lt; Ir.Ge; Ir.Ne ]) (pick !words) (pick !words)
        :: !bools
    | 3 ->
      if !bools <> [] then
        words := N.mux c ~sel:(pick !bools) ~t:(pick !words) ~e:(pick !words) () :: !words
    | 4 -> if !bools <> [] then bools := N.not_ c (pick !bools) :: !bools
    | 5 -> if List.length !bools >= 2 then bools := N.and_ c [ pick !bools; pick !bools ] :: !bools
    | 6 -> if List.length !bools >= 2 then bools := N.xor_ c (pick !bools) (pick !bools) :: !bools
    | 7 -> words := N.bitxor c (pick !words) (pick !words) :: !words
    | 8 ->
      let hi = N.extract c (pick !words) ~msb:1 ~lsb:0 in
      let lo = N.extract c (pick !words) ~msb:2 ~lsb:1 in
      words := N.concat c ~hi ~lo :: !words
    | _ ->
      (* multiply then truncate back to the uniform 4-bit width *)
      let p = N.mul_const c 3 (pick !words) in
      words := N.extract c p ~msb:3 ~lsb:0 :: !words
  done;
  N.output c "o" (pick !words);
  (c, a, b)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"random circuits roundtrip" ~count:100
    QCheck.(triple (int_bound 100_000) (int_bound 15) (int_bound 15))
    (fun (seed, av, bv) ->
       let c, a, b = gen_circuit seed in
       let printed = Text.to_string c in
       let reparsed = Text.parse printed in
       let stable = printed = Text.to_string reparsed in
       let o1 = N.find_output c "o" in
       let o2 = N.find_output reparsed "o" in
       let v1 =
         Sim.value (Sim.eval c (Sim.initial_state c) ~inputs:[ (a, av); (b, bv) ]) o1
       in
       let a2 = N.find_input reparsed "a" and b2 = N.find_input reparsed "b" in
       let v2 =
         Sim.value
           (Sim.eval reparsed (Sim.initial_state reparsed)
              ~inputs:[ (a2, av); (b2, bv) ])
           o2
       in
       stable && v1 = v2)

let qsuite = Qutil.qsuite

let () =
  Alcotest.run "text"
    [
      ( "parse",
        [
          Alcotest.test_case "sample netlist" `Quick test_parse_sample;
          Alcotest.test_case "errors carry line numbers" `Quick test_errors;
          Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "sample" `Quick test_roundtrip_sample;
          Alcotest.test_case "all benchmarks" `Quick test_roundtrip_benchmarks;
        ] );
      qsuite "props" [ prop_roundtrip_random ];
    ]
