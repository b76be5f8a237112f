(* A broader C corpus through the full pipeline with differential
   refinement testing: wider integer widths, early returns inside loops
   (the exception-monad fallback path), nested structs, pointer arithmetic,
   casts, and call graphs.  Each program also re-validates its kernel
   derivations. *)

module B = Ac_bignum
module Value = Ac_lang.Value
module Ty = Ac_lang.Ty
module Driver = Autocorres.Driver
module Refine_test = Autocorres.Refine_test

let corpus : (string * string) list =
  [
    ( "widths64",
      "unsigned long long mix64(unsigned long long a, unsigned int b) {\n\
      \  unsigned long long x = a + b;\n\
      \  return x * 2ull;\n}\n" );
    ( "widths8",
      "unsigned char narrow(unsigned char c, unsigned char d) {\n\
      \  return (unsigned char)(c + d);\n}\n" );
    ( "signed64",
      "long long smul(long long a, long long b) { return a * b; }" );
    ( "sign_mix",
      "int sign_mix(int s, unsigned u) {\n\
      \  unsigned r = s + u;\n\
      \  return (int) (r >> 1);\n}\n" );
    ( "early_return_loop",
      "int find(int *a, int n, int key) {\n\
      \  int i = 0;\n\
      \  while (i < n) {\n\
      \    if (a[i] == key) return i;\n\
      \    i = i + 1;\n\
      \  }\n\
      \  return 0 - 1;\n}\n" );
    ( "nested_struct",
      "struct inner { unsigned lo; unsigned hi; };\n\
       struct outer { struct inner pair; unsigned tag; };\n\
       unsigned read_tagged(struct outer *p) {\n\
      \  if (p->tag != 0u)\n\
      \    return p->pair.lo + p->pair.hi;\n\
      \  return 0u;\n}\n" );
    ( "linked_sum",
      "struct node { struct node *next; unsigned data; };\n\
       unsigned sum(struct node *p, unsigned fuel) {\n\
      \  unsigned acc = 0u;\n\
      \  while (p != NULL && fuel != 0u) {\n\
      \    acc = acc + p->data;\n\
      \    p = p->next;\n\
      \    fuel = fuel - 1u;\n\
      \  }\n\
      \  return acc;\n}\n" );
    ( "ptr_walk",
      "unsigned char sum_bytes(unsigned char *p, unsigned n) {\n\
      \  unsigned char acc = 0;\n\
      \  unsigned i = 0u;\n\
      \  while (i < n) {\n\
      \    acc = (unsigned char)(acc + p[i]);\n\
      \    i = i + 1u;\n\
      \  }\n\
      \  return acc;\n}\n" );
    ( "bit_tricks",
      "unsigned popcount_ish(unsigned x) {\n\
      \  unsigned c = 0u;\n\
      \  while (x != 0u) { c = c + (x & 1u); x = x >> 1; }\n\
      \  return c;\n}\n" );
    ( "ternary",
      "int clamp(int x, int lo, int hi) { return x < lo ? lo : (x > hi ? hi : x); }" );
    ( "do_while",
      "unsigned collatz_steps(unsigned n, unsigned fuel) {\n\
      \  unsigned steps = 0u;\n\
      \  do {\n\
      \    if (n % 2u == 0u) n = n / 2u; else n = 3u * n + 1u;\n\
      \    steps = steps + 1u;\n\
      \    fuel = fuel - 1u;\n\
      \  } while (n != 1u && fuel != 0u);\n\
      \  return steps;\n}\n" );
    ( "call_graph",
      "unsigned sq(unsigned x) { return x * x; }\n\
       unsigned cube(unsigned x) { unsigned s; s = sq(x); return s * x; }\n\
       unsigned poly(unsigned x) { unsigned c; unsigned s; c = cube(x); s = sq(x); \
       return c + s + x; }\n" );
    ( "global_state_machine",
      "unsigned state;\n\
       unsigned step(unsigned input) {\n\
      \  if (state == 0u) { if (input != 0u) state = 1u; }\n\
      \  else if (state == 1u) { state = input == 0u ? 2u : 1u; }\n\
      \  else { state = 0u; }\n\
      \  return state;\n}\n" );
    ( "casts",
      "unsigned truncate_and_extend(unsigned x) {\n\
      \  unsigned char low = (unsigned char) x;\n\
      \  short s = (short) x;\n\
      \  return (unsigned) low + (unsigned) s;\n}\n" );
    ( "compound_ops",
      "unsigned compound(unsigned x) {\n\
      \  unsigned a = x;\n\
      \  a += 3u; a <<= 2; a ^= x; a |= 1u; a &= 0xffffu; a -= 2u;\n\
      \  return a;\n}\n" );
    ( "struct_copy",
      "struct pair { unsigned fst; unsigned snd; };\n\
       unsigned mirror(struct pair *a, struct pair *b) {\n\
      \  b->fst = a->snd;\n\
      \  b->snd = a->fst;\n\
      \  return b->fst + b->snd;\n}\n" );
  ]

let pipeline_tests =
  List.map
    (fun (name, src) ->
      ( Printf.sprintf "pipeline + derivations: %s" name,
        fun () ->
          let res = Driver.run src in
          (match Driver.check_all res with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" name e);
          (* every function must produce a final form *)
          Alcotest.(check bool) "has functions" true (res.Driver.funcs <> []) ))
    corpus

let differential_tests =
  List.map
    (fun (name, src) ->
      ( Printf.sprintf "refinement on random states: %s" name,
        fun () ->
          let res = Driver.run src in
          let report = Refine_test.check_program ~cases:40 res in
          (match report.Refine_test.violations with
          | [] -> ()
          | (f, d) :: _ -> Alcotest.failf "%s.%s: %s" name f d);
          Alcotest.(check bool) "cases ran" true
            (report.Refine_test.agreed + report.Refine_test.abstract_failed
             + report.Refine_test.skipped
            = report.Refine_test.cases) ))
    corpus

let width_tests =
  [
    ( "64-bit unsigned abstraction bounds use 2^64",
      fun () ->
        let res =
          Driver.run "unsigned long long add64(unsigned long long a, unsigned long long b) { return a + b; }"
        in
        let fr = Option.get (Driver.find_result res "add64") in
        let out = Ac_monad.Mprint.func_to_string fr.Driver.fr_final in
        Alcotest.(check bool) "UINT64_MAX guard" true
          (Astring.String.is_infix ~affix:"18446744073709551615" out) );
    ( "8-bit arithmetic goes through int promotion (no overflow guard needed)",
      fun () ->
        let res = Driver.run "unsigned char addc(unsigned char a, unsigned char b) { return (unsigned char)(a + b); }" in
        let fr = Option.get (Driver.find_result res "addc") in
        (* a and b promote to int; the addition is signed 32-bit and cannot
           overflow on 8-bit inputs, so the guard must discharge or be
           provable; executing must agree with C (differential covers it) *)
        Alcotest.(check bool) "produced" true (Ac_monad.M.func_size fr.Driver.fr_final > 0) );
    ( "collatz executes correctly after abstraction",
      fun () ->
        let res = Driver.run (List.assoc "do_while" corpus) in
        let vn n = Value.vnat (B.of_int n) in
        match
          Ac_monad.Interp.run_func res.Driver.final_prog ~fuel:100_000
            Ac_simpl.State.empty "collatz_steps" [ vn 6; vn 100 ]
        with
        | Ac_monad.Interp.Returns (v, _) ->
          (* 6 -> 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1 : 8 steps *)
          Alcotest.(check string) "steps" "8" (Value.to_string v)
        | _ -> Alcotest.fail "execution failed" );
    ( "early-return-in-loop keeps a sound exception form",
      fun () ->
        let res = Driver.run (List.assoc "early_return_loop" corpus) in
        let fr = Option.get (Driver.find_result res "find") in
        (* whether or not the wrapper was eliminated, execution must agree *)
        Alcotest.(check bool) "final exists" true (Ac_monad.M.func_size fr.Driver.fr_final > 0)
    );
  ]

(* The differential tester's case stream, pinned at the default case count
   [acc check] uses.  A change to the generated states, the fuel semantics
   or either interpreter that alters any verdict fails here, whatever it
   does for speed. *)
let pinned_reports =
  List.map
    (fun (file, (cases, agreed, abstract_failed, skipped)) ->
      ( Printf.sprintf "pinned differential report: %s" file,
        fun () ->
          let source = In_channel.with_open_bin ("../corpus/" ^ file) In_channel.input_all in
          let r = Refine_test.check_program (Driver.run source) in
          Alcotest.(check (list int))
            "cases/agreed/abstract_failed/skipped"
            [ cases; agreed; abstract_failed; skipped ]
            [ r.Refine_test.cases; r.agreed; r.abstract_failed; r.skipped ];
          Alcotest.(check int) "violations" 0 (List.length r.Refine_test.violations) ))
    [
      ("schorr_waite.c", (100, 100, 0, 0));
      ("mutual_parity.c", (300, 43, 0, 257));
      ("suzuki.c", (100, 63, 37, 0));
    ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    (pipeline_tests @ differential_tests @ width_tests @ pinned_reports)
