(* Tests for machine words: agreement with Int32/Int64 reference semantics,
   two's-complement laws, and the paper's Table 2 counter-examples. *)

module B = Ac_bignum
module W = Ac_word

let w32 = W.of_int W.W32
let w8 = W.of_int W.W8
let w64 n = W.of_int W.W64 n

let check_u msg expected actual = Alcotest.(check string) msg expected (W.to_string_u actual)
let check_s msg expected actual = Alcotest.(check string) msg expected (W.to_string_s actual)

let arb_i32 = QCheck.int_range (-0x40000000) 0x3FFFFFFF

(* Arbitrary 32-bit words, biased toward boundary values where overflow
   behaviour lives. *)
let gen_w32 =
  let open QCheck.Gen in
  frequency
    [
      (3, map w32 (int_range (-0x80000000) 0xFFFFFFFF));
      (1, oneofl [ w32 0; w32 1; w32 (-1); w32 0x7FFFFFFF; w32 0x80000000; w32 0xFFFFFFFF ]);
    ]

let arb_w32 = QCheck.make ~print:W.to_string_u gen_w32

let i32_of_word w = Int32.of_string (B.to_string (W.sint w))
let word_of_i32 v = w32 (Int32.to_int v)

let unit_tests =
  [
    ( "unat and sint views",
      fun () ->
        check_u "unat -1" "4294967295" (w32 (-1));
        check_s "sint -1" "-1" (w32 (-1));
        check_s "sint 2^31" "-2147483648" (w32 0x80000000);
        check_u "unat 2^31" "2147483648" (w32 0x80000000) );
    ( "unsigned wraparound (C99 modulo)",
      fun () ->
        (* Table 2: 2^31 * 2 = 0 on unsigned 32-bit words. *)
        check_u "2^31 * 2" "0" (W.mul W.Unsigned (w32 0x80000000) (w32 2));
        check_u "max + 1" "0" (W.add W.Unsigned (w32 0xFFFFFFFF) (w32 1)) );
    ( "table 2: s + 1 - 1 wraps at INT_MAX",
      fun () ->
        let s = w32 0x7FFFFFFF in
        Alcotest.(check bool) "overflow flagged" true (W.add_overflows W.Signed s (w32 1));
        check_s "wrapped" "-2147483648" (W.add W.Signed s (w32 1)) );
    ( "table 2: -(-s) overflows at INT_MIN",
      fun () ->
        let s = w32 0x80000000 in
        check_s "neg INT_MIN = INT_MIN" "-2147483648" (W.neg W.Signed s) );
    ( "table 2: u + 1 > u fails at UINT_MAX",
      fun () ->
        let u = w32 0xFFFFFFFF in
        Alcotest.(check bool) "u+1 <= u" true (W.compare_u (W.add W.Unsigned u (w32 1)) u < 0) );
    ( "table 2: u * 2 = 4 does not imply u = 2",
      fun () ->
        let u = w32 (0x80000000 + 2) in
        check_u "other preimage" "4" (W.mul W.Unsigned u (w32 2)) );
    ( "table 2: -u = u does not imply u = 0",
      fun () ->
        let u = w32 0x80000000 in
        Alcotest.(check bool) "-u = u" true (W.equal (W.neg W.Unsigned u) u);
        Alcotest.(check bool) "u <> 0" false (W.is_zero u) );
    ( "signed division truncates toward zero",
      fun () ->
        check_s "-7/2" "-3" (W.div W.Signed (w32 (-7)) (w32 2));
        check_s "-7%2" "-1" (W.rem W.Signed (w32 (-7)) (w32 2)) );
    ( "div overflow: INT_MIN / -1",
      fun () ->
        Alcotest.(check bool) "flagged" true
          (W.div_overflows W.Signed (w32 0x80000000) (w32 (-1)));
        Alcotest.(check bool) "not flagged" false (W.div_overflows W.Signed (w32 5) (w32 (-1))) );
    ( "shifts",
      fun () ->
        check_u "shl" "16" (W.shift_left (w32 1) (B.of_int 4));
        check_u "shl wrap" "0" (W.shift_left (w32 0x80000000) (B.of_int 1));
        check_u "lshr" "1" (W.shift_right_u (w32 16) (B.of_int 4));
        check_s "ashr keeps sign" "-1" (W.shift_right_s (w32 (-1)) (B.of_int 8));
        Alcotest.(check bool) "amount ok" true (W.shift_amount_ok (w32 1) (B.of_int 31));
        Alcotest.(check bool) "amount too big" false (W.shift_amount_ok (w32 1) (B.of_int 32)) );
    ( "bitwise",
      fun () ->
        check_u "not 0" "4294967295" (W.lognot (w32 0));
        check_u "and" "8" (W.logand (w32 12) (w32 10));
        check_u "or" "14" (W.logor (w32 12) (w32 10));
        check_u "xor" "6" (W.logxor (w32 12) (w32 10)) );
    ( "casts",
      fun () ->
        (* (unsigned char)(-1) = 255 *)
        check_u "s32->u8" "255" (W.cast ~to_sign:W.Unsigned ~to_width:W.W8 W.Signed (w32 (-1)));
        (* (int)(unsigned char)200 = 200 *)
        check_s "u8->s32" "200" (W.cast ~to_sign:W.Signed ~to_width:W.W32 W.Unsigned (w8 200));
        (* widening a signed negative sign-extends *)
        check_u "s8->u32 sign-extend" "4294967295"
          (W.cast ~to_sign:W.Unsigned ~to_width:W.W32 W.Signed (w8 0xFF)) );
    ( "cast_value",
      fun () ->
        Alcotest.(check string) "to u8" "255"
          (B.to_string (W.cast_value ~to_sign:W.Unsigned ~to_width:W.W8 (B.of_int (-1))));
        Alcotest.(check string) "to s8" "-1"
          (B.to_string (W.cast_value ~to_sign:W.Signed ~to_width:W.W8 (B.of_int 255))) );
    ( "byte round trip",
      fun () ->
        let w = w32 0x12345678 in
        Alcotest.(check (list int)) "bytes le" [ 0x78; 0x56; 0x34; 0x12 ] (W.to_bytes w);
        Alcotest.(check bool) "round" true (W.equal (W.of_bytes W.W32 (W.to_bytes w)) w);
        let v = w64 (-1) in
        Alcotest.(check bool) "w64 round" true (W.equal (W.of_bytes W.W64 (W.to_bytes v)) v) );
    ( "range bounds",
      fun () ->
        Alcotest.(check string) "INT_MIN" "-2147483648" (B.to_string (W.min_value W.Signed W.W32));
        Alcotest.(check string) "INT_MAX" "2147483647" (B.to_string (W.max_value W.Signed W.W32));
        Alcotest.(check string) "UINT_MAX" "4294967295"
          (B.to_string (W.max_value W.Unsigned W.W32));
        Alcotest.(check bool) "in range" true (W.in_range W.Signed W.W32 (B.of_int 5));
        Alcotest.(check bool) "not in range" false
          (W.in_range W.Signed W.W32 (B.of_int 0x80000000)) );
  ]

let prop_tests =
  let open QCheck in
  let i32 f32 fw (x, y) =
    let a = Int32.of_int x and c = Int32.of_int y in
    W.equal (word_of_i32 (f32 a c)) (fw (w32 x) (w32 y))
  in
  [
    Test.make ~name:"add matches Int32" ~count:500 (pair arb_i32 arb_i32)
      (i32 Int32.add (W.add W.Signed));
    Test.make ~name:"sub matches Int32" ~count:500 (pair arb_i32 arb_i32)
      (i32 Int32.sub (W.sub W.Signed));
    Test.make ~name:"mul matches Int32" ~count:500 (pair arb_i32 arb_i32)
      (i32 Int32.mul (W.mul W.Signed));
    Test.make ~name:"signed and unsigned add agree on representatives" ~count:500
      (pair arb_w32 arb_w32) (fun (a, c) ->
        W.equal (W.add W.Signed a c) (W.add W.Unsigned a c));
    Test.make ~name:"sub is add of neg" ~count:500 (pair arb_w32 arb_w32) (fun (a, c) ->
        W.equal (W.sub W.Unsigned a c) (W.add W.Unsigned a (W.neg W.Unsigned c)));
    Test.make ~name:"unat bounds" ~count:500 arb_w32 (fun a ->
        B.le B.zero (W.unat a) && B.lt (W.unat a) (B.pow2 32));
    Test.make ~name:"sint bounds" ~count:500 arb_w32 (fun a ->
        B.le (B.neg (B.pow2 31)) (W.sint a) && B.lt (W.sint a) (B.pow2 31));
    Test.make ~name:"unat/sint congruent mod 2^32" ~count:500 arb_w32 (fun a ->
        B.is_zero (B.fmod (B.sub (W.unat a) (W.sint a)) (B.pow2 32)));
    Test.make ~name:"no signed overflow implies exact add" ~count:500 (pair arb_w32 arb_w32)
      (fun (a, c) ->
        QCheck.assume (not (W.add_overflows W.Signed a c));
        B.equal (W.sint (W.add W.Signed a c)) (B.add (W.sint a) (W.sint c)));
    Test.make ~name:"no unsigned overflow implies exact add" ~count:500 (pair arb_w32 arb_w32)
      (fun (a, c) ->
        QCheck.assume (not (W.add_overflows W.Unsigned a c));
        B.equal (W.unat (W.add W.Unsigned a c)) (B.add (W.unat a) (W.unat c)));
    Test.make ~name:"lognot is max - x" ~count:500 arb_w32 (fun a ->
        B.equal (W.unat (W.lognot a)) (B.sub (W.max_value W.Unsigned W.W32) (W.unat a)));
    Test.make ~name:"cast round trip via wider" ~count:500 arb_w32 (fun a ->
        let up = W.cast ~to_sign:W.Unsigned ~to_width:W.W64 W.Unsigned a in
        W.equal (W.cast ~to_sign:W.Unsigned ~to_width:W.W32 W.Unsigned up) a);
    Test.make ~name:"byte round trip" ~count:500 arb_w32 (fun a ->
        W.equal (W.of_bytes W.W32 (W.to_bytes a)) a);
    (* to_bytes reduces through B.mod_pow2 once per byte: both directions
       of the round trip, at every width. *)
    Test.make ~name:"byte round trip at every width" ~count:500
      (pair (oneofl [ W.W8; W.W16; W.W32; W.W64 ]) (list_of_size (Gen.return 8) (int_range 0 255)))
      (fun (w, bytes) ->
        let bytes = List.filteri (fun i _ -> i < W.bits w / 8) bytes in
        let x = W.of_bytes w bytes in
        W.to_bytes x = bytes && W.equal (W.of_bytes w (W.to_bytes x)) x
        && B.equal (W.unat x)
             (List.fold_right (fun b acc -> B.add (B.shift_left acc 8) (B.of_int b)) bytes B.zero));
    Test.make ~name:"div identity" ~count:500 (pair arb_w32 arb_w32) (fun (a, c) ->
        QCheck.assume (not (W.is_zero c));
        QCheck.assume (not (W.div_overflows W.Signed a c));
        let q = W.div W.Signed a c and r = W.rem W.Signed a c in
        B.equal (W.sint a) (B.add (B.mul (W.sint q) (W.sint c)) (W.sint r)));
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
  @ List.map QCheck_alcotest.to_alcotest prop_tests
