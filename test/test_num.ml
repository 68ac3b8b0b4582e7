(* Unit and property tests for Bigint. *)

module B = Rtlsat_num.Bigint

let check_int msg expected actual = Alcotest.(check int) msg expected actual
let check_str msg expected actual = Alcotest.(check string) msg expected actual

(* ---- Bigint unit tests ---- *)

let test_of_to_int () =
  List.iter
    (fun v -> check_int (string_of_int v) v (B.to_int (B.of_int v)))
    [ 0; 1; -1; 42; -42; max_int; min_int + 1; 1 lsl 40; -(1 lsl 40) ]

let test_min_int () =
  check_str "min_int" (string_of_int min_int) (B.to_string (B.of_int min_int))

let test_to_string () =
  check_str "zero" "0" (B.to_string B.zero);
  check_str "small" "12345" (B.to_string (B.of_int 12345));
  check_str "negative" "-987654321" (B.to_string (B.of_int (-987654321)));
  let big = B.pow (B.of_int 10) 30 in
  check_str "10^30" "1000000000000000000000000000000" (B.to_string big)

let test_of_string () =
  check_str "roundtrip" "123456789012345678901234567890"
    (B.to_string (B.of_string "123456789012345678901234567890"));
  check_str "negative" "-42" (B.to_string (B.of_string "-42"));
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty")
    (fun () -> ignore (B.of_string ""))

let test_add_carry () =
  (* force multi-limb carries *)
  let x = B.sub (B.pow (B.of_int 2) 120) B.one in
  check_str "2^120" (B.to_string (B.pow (B.of_int 2) 120)) (B.to_string (B.add x B.one))

let test_mul_big () =
  let x = B.of_string "123456789123456789" in
  let y = B.of_string "987654321987654321" in
  check_str "product" "121932631356500531347203169112635269"
    (B.to_string (B.mul x y))

let test_divmod () =
  let cases = [ (17, 5); (-17, 5); (17, -5); (-17, -5); (0, 3); (100, 1) ] in
  List.iter
    (fun (a, b) ->
       let q, r = B.tdiv_rem (B.of_int a) (B.of_int b) in
       check_int (Printf.sprintf "q %d/%d" a b) (a / b) (B.to_int q);
       check_int (Printf.sprintf "r %d/%d" a b) (a mod b) (B.to_int r))
    cases

let test_fdiv_cdiv () =
  check_int "fdiv -7 2" (-4) (B.to_int (B.fdiv (B.of_int (-7)) (B.of_int 2)));
  check_int "cdiv -7 2" (-3) (B.to_int (B.cdiv (B.of_int (-7)) (B.of_int 2)));
  check_int "fdiv 7 2" 3 (B.to_int (B.fdiv (B.of_int 7) (B.of_int 2)));
  check_int "cdiv 7 2" 4 (B.to_int (B.cdiv (B.of_int 7) (B.of_int 2)))

let test_erem () =
  check_int "erem -7 3" 2 (B.to_int (B.erem (B.of_int (-7)) (B.of_int 3)));
  check_int "erem 7 -3" 1 (B.to_int (B.erem (B.of_int 7) (B.of_int (-3))))

let test_gcd_lcm () =
  check_int "gcd" 6 (B.to_int (B.gcd (B.of_int 48) (B.of_int (-18))));
  check_int "gcd00" 0 (B.to_int (B.gcd B.zero B.zero));
  check_int "lcm" 36 (B.to_int (B.lcm (B.of_int 12) (B.of_int 18)))

let test_pow () =
  check_int "2^10" 1024 (B.to_int (B.pow (B.of_int 2) 10));
  check_int "x^0" 1 (B.to_int (B.pow (B.of_int 99) 0));
  Alcotest.check_raises "neg" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (B.pow B.one (-1)))

let test_shift () =
  check_int "shl" 40 (B.to_int (B.shift_left (B.of_int 5) 3));
  check_int "shr" 5 (B.to_int (B.shift_right (B.of_int 40) 3));
  check_int "shr neg" (-2) (B.to_int (B.shift_right (B.of_int (-7)) 2))

let test_compare () =
  Alcotest.(check bool) "lt" true B.(of_int 3 < of_int 5);
  Alcotest.(check bool) "neg lt" true B.(of_int (-5) < of_int (-3));
  Alcotest.(check bool) "cross" true B.(of_int (-1) < of_int 0);
  check_int "sign" (-1) (B.sign (B.of_int (-7)))

let test_to_int_overflow () =
  let big = B.pow (B.of_int 2) 100 in
  Alcotest.(check bool) "overflow" true (B.to_int_opt big = None)

(* ---- Bigint properties ---- *)

let arb_small = QCheck.int_range (-1_000_000) 1_000_000

let prop_ring_ops =
  QCheck.Test.make ~name:"bigint matches native int ops" ~count:500
    (QCheck.triple arb_small arb_small arb_small)
    (fun (a, b, c) ->
       let ba = B.of_int a and bb = B.of_int b and bc = B.of_int c in
       B.to_int B.((ba + bb) * bc) = (a + b) * c
       && B.to_int B.(ba - bb) = a - b
       && B.compare ba bb = compare a b)

let prop_divmod =
  QCheck.Test.make ~name:"tdiv_rem reconstructs" ~count:500
    (QCheck.pair QCheck.int QCheck.(int_range 1 1_000_000))
    (fun (a, b) ->
       let q, r = B.tdiv_rem (B.of_int a) (B.of_int b) in
       B.equal (B.add (B.mul q (B.of_int b)) r) (B.of_int a))

let prop_big_divmod =
  QCheck.Test.make ~name:"big tdiv_rem reconstructs" ~count:100
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.return 5) arb_small)
       (QCheck.list_of_size (QCheck.Gen.return 3) arb_small))
    (fun (xs, ys) ->
       (* build big operands by positional combination *)
       let horner l =
         List.fold_left (fun acc d -> B.add (B.mul acc (B.of_int 1_000_000)) (B.of_int d))
           B.zero l
       in
       let a = horner xs and b = horner ys in
       QCheck.assume (not (B.is_zero b));
       let q, r = B.tdiv_rem a b in
       B.equal (B.add (B.mul q b) r) a && B.compare (B.abs r) (B.abs b) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:300 QCheck.int
    (fun a -> B.to_int (B.of_string (string_of_int a)) = a)

let qsuite = Qutil.qsuite

let () =
  Alcotest.run "num"
    [
      ( "bigint",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "min_int" `Quick test_min_int;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "carry chains" `Quick test_add_carry;
          Alcotest.test_case "big multiply" `Quick test_mul_big;
          Alcotest.test_case "divmod signs" `Quick test_divmod;
          Alcotest.test_case "fdiv/cdiv" `Quick test_fdiv_cdiv;
          Alcotest.test_case "erem" `Quick test_erem;
          Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "shift" `Quick test_shift;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
        ] );
      qsuite "bigint-props"
        [ prop_ring_ops; prop_divmod; prop_big_divmod; prop_string_roundtrip ];
    ]
