(* Tests for the Simpl layer: heap lifting (paper Fig 4), the C->Simpl
   translation's guards (Fig 2), and the big-step semantics. *)

module B = Ac_bignum
module W = Ac_word
module Ty = Ac_lang.Ty
module Value = Ac_lang.Value
module E = Ac_lang.Expr
module Layout = Ac_lang.Layout
open Ac_simpl

let v32 n = Value.vword Ty.Signed (W.of_int W.W32 n)
let vu32 n = Value.vword Ty.Unsigned (W.of_int W.W32 n)

let fuel = 100000

let run ?(state = State.empty) src fname args =
  let prog = C2simpl.parse src in
  Sem.run_func prog ~fuel state fname args

let check_ret msg expected result =
  match result with
  | Sem.Returns (Some v, _) -> Alcotest.(check string) msg expected (Value.to_string v)
  | Sem.Returns (None, _) -> Alcotest.fail (msg ^ ": no return value")
  | Sem.Faults k -> Alcotest.fail (msg ^ ": fault " ^ Ir.guard_kind_name k)
  | Sem.Gets_stuck m -> Alcotest.fail (msg ^ ": stuck " ^ m)
  | Sem.Diverges -> Alcotest.fail (msg ^ ": diverged")

let check_fault msg kind result =
  match result with
  | Sem.Faults k when k = kind -> ()
  | Sem.Faults k -> Alcotest.fail (msg ^ ": wrong fault " ^ Ir.guard_kind_name k)
  | _ -> Alcotest.fail (msg ^ ": expected fault")

let max_c = "int max(int a, int b) {\n  if (a < b)\n    return b;\n  return a;\n}\n"

let gcd_c =
  "unsigned gcd(unsigned a, unsigned b) {\n\
  \  while (b != 0u) { unsigned t = b; b = a % b; a = t; }\n\
  \  return a;\n}\n"

let heap_tests =
  [
    ( "heap lift: tagged aligned object lifts (Fig 4)",
      fun () ->
        let lenv = Layout.empty in
        let c = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let addr, h = Heap.alloc lenv Heap.empty c in
        let h = Heap.write_obj lenv h c addr (vu32 0x11223344) in
        (match Heap.heap_lift lenv h c addr with
        | Some v -> Alcotest.(check string) "value" "287454020" (Value.to_string v)
        | None -> Alcotest.fail "expected Some");
        (* misaligned: reading two bytes in *)
        Alcotest.(check bool) "misaligned is None" true
          (Heap.heap_lift lenv h c (B.add addr B.two) = None);
        (* wrong type *)
        Alcotest.(check bool) "wrong type is None" true
          (Heap.heap_lift lenv h (Ty.Cword (Ty.Unsigned, Ty.W16)) addr = None);
        (* untyped address *)
        Alcotest.(check bool) "untagged is None" true
          (Heap.heap_lift lenv h c (B.add addr (B.of_int 64)) = None) );
    ( "heap lift: null never lifts",
      fun () ->
        let lenv = Layout.empty in
        let c = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let h = Heap.retype lenv Heap.empty c B.zero in
        Alcotest.(check bool) "null" true (Heap.heap_lift lenv h c B.zero = None) );
    ( "retype clears overlapping tags",
      fun () ->
        let lenv = Layout.empty in
        let c32 = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let c8 = Ty.Cword (Ty.Unsigned, Ty.W8) in
        let addr, h = Heap.alloc lenv Heap.empty c32 in
        let h = Heap.retype lenv h c8 (B.add addr B.one) in
        Alcotest.(check bool) "w32 tag gone" true (Heap.heap_lift lenv h c32 addr = None);
        Alcotest.(check bool) "w8 lifts" true
          (Heap.heap_lift lenv h c8 (B.add addr B.one) <> None) );
    ( "byte-level read/write round trip through structs",
      fun () ->
        let lenv =
          Layout.declare_struct Layout.empty "node"
            [ ("next", Ty.Cptr (Ty.Cstruct "node")); ("data", Ty.Cword (Ty.Unsigned, Ty.W32)) ]
        in
        let c = Ty.Cstruct "node" in
        let addr, h = Heap.alloc lenv Heap.empty c in
        let v =
          Value.Vstruct
            ("node", [ ("next", Value.vptr (B.of_int 0x2000) c); ("data", vu32 77) ])
        in
        let h = Heap.write_obj lenv h c addr v in
        match Heap.heap_lift lenv h c addr with
        | Some v' -> Alcotest.(check bool) "round trip" true (Value.equal v v')
        | None -> Alcotest.fail "lift failed" );
  ]

let translation_tests =
  [
    ( "max translates to the Fig 2 shape",
      fun () ->
        let prog = C2simpl.parse max_c in
        let f = Option.get (Ir.find_func prog "max") in
        let text = Print.func_to_string f in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("contains " ^ needle) true
              (Astring.String.is_infix ~affix:needle text))
          [ "TRY"; "CATCH SKIP END"; "THROW"; "´ret :=="; "´global_exn_var :=="; "GUARD DontReach" ]
    );
    ( "signed addition emits overflow guard",
      fun () ->
        let prog = C2simpl.parse "int add(int a, int b) { return a + b; }" in
        let f = Option.get (Ir.find_func prog "add") in
        let guards = ref 0 in
        Ir.iter_stmts
          (fun s -> match s with Ir.Guard (Ir.Signed_overflow, _) -> incr guards | _ -> ())
          f.body;
        Alcotest.(check int) "one overflow guard" 1 !guards );
    ( "unsigned addition emits no overflow guard",
      fun () ->
        let prog = C2simpl.parse "unsigned add(unsigned a, unsigned b) { return a + b; }" in
        let f = Option.get (Ir.find_func prog "add") in
        let guards = ref 0 in
        Ir.iter_stmts (fun s -> match s with Ir.Guard _ -> incr guards | _ -> ()) f.body;
        (* only the DontReach fall-off guard *)
        Alcotest.(check int) "one guard" 1 !guards );
    ( "dereference emits pointer-validity guard",
      fun () ->
        let prog = C2simpl.parse "unsigned get(unsigned *p) { return *p; }" in
        let f = Option.get (Ir.find_func prog "get") in
        let found = ref false in
        Ir.iter_stmts
          (fun s -> match s with Ir.Guard (Ir.Ptr_valid, _) -> found := true | _ -> ())
          f.body;
        Alcotest.(check bool) "guard" true !found );
    ( "heap types collected for heap abstraction",
      fun () ->
        let prog =
          C2simpl.parse
            "struct node { struct node *next; unsigned data; };\n\
             unsigned f(struct node *p, unsigned *q) { return p->data + *q; }"
        in
        let f = Option.get (Ir.find_func prog "f") in
        let tys = Ir.heap_types_of_stmt f.body in
        Alcotest.(check int) "two heap types" 2 (List.length tys) );
  ]

let exec_tests =
  [
    ( "max computes max",
      fun () ->
        check_ret "max 3 7" "7" (run max_c "max" [ v32 3; v32 7 ]);
        check_ret "max 7 3" "7" (run max_c "max" [ v32 7; v32 3 ]);
        check_ret "max -5 -9" "-5" (run max_c "max" [ v32 (-5); v32 (-9) ]) );
    ( "gcd computes gcd",
      fun () ->
        check_ret "gcd 54 24" "6" (run gcd_c "gcd" [ vu32 54; vu32 24 ]);
        check_ret "gcd 17 5" "1" (run gcd_c "gcd" [ vu32 17; vu32 5 ]) );
    ( "signed overflow faults",
      fun () ->
        check_fault "INT_MAX + 1" Ir.Signed_overflow
          (run "int f(int a) { return a + 1; }" "f" [ v32 0x7FFFFFFF ]) );
    ( "unsigned overflow wraps silently",
      fun () ->
        check_ret "UINT_MAX + 1" "0"
          (run "unsigned f(unsigned a) { return a + 1u; }" "f" [ vu32 0xFFFFFFFF ]) );
    ( "division by zero faults",
      fun () ->
        check_fault "1/0" Ir.Div_by_zero (run "int f(int a) { return 1 / a; }" "f" [ v32 0 ]) );
    ( "INT_MIN / -1 faults",
      fun () ->
        check_fault "overflow div" Ir.Signed_overflow
          (run "int f(int a, int b) { return a / b; }" "f" [ v32 (-0x80000000); v32 (-1) ])
    );
    ( "null dereference faults",
      fun () ->
        check_fault "null" Ir.Ptr_valid
          (run "unsigned f(unsigned *p) { return *p; }" "f"
             [ Value.null (Ty.Cword (Ty.Unsigned, Ty.W32)) ]) );
    ( "short-circuit && does not fault on guarded right operand",
      fun () ->
        check_ret "null && deref" "0"
          (run "int f(unsigned *p) { if (p != NULL && *p == 1u) return 1; return 0; }" "f"
             [ Value.null (Ty.Cword (Ty.Unsigned, Ty.W32)) ]) );
    ( "loops with break and continue",
      fun () ->
        check_ret "sum of odds stopping at 7" "9"
          (run
             "int f() { int s = 0; int i = 0; while (1) { i = i + 1; if (i >= 7) break; \
              if (i % 2 == 0) continue; s = s + i; } return s; }"
             "f" []) );
    ( "for loop",
      fun () ->
        check_ret "sum 0..9" "45"
          (run "int f() { int s = 0; for (int i = 0; i < 10; i = i + 1) s = s + i; return s; }"
             "f" []) );
    ( "recursion: factorial",
      fun () ->
        check_ret "5!" "120"
          (run "unsigned fact(unsigned n) { if (n == 0u) return 1u; unsigned r; r = fact(n - 1u); return n * r; }"
             "fact" [ vu32 5 ]) );
    ( "mutual calls and globals",
      fun () ->
        let src =
          "unsigned counter;\n\
           void bump(unsigned by) { counter = counter + by; }\n\
           unsigned twice(unsigned x) { bump(x); bump(x); return counter; }\n"
        in
        let state = State.set_global State.empty "counter" (vu32 0) in
        check_ret "twice 21" "42" (run ~state src "twice" [ vu32 21 ]) );
    ( "swap via the heap",
      fun () ->
        let lenv = Layout.empty in
        let c = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let a, h = Heap.alloc lenv Heap.empty c in
        let b, h = Heap.alloc lenv h c in
        let h = Heap.write_obj lenv h c a (vu32 1) in
        let h = Heap.write_obj lenv h c b (vu32 2) in
        let state = State.with_heap State.empty h in
        let src =
          "void swap(unsigned *a, unsigned *b) { unsigned t = *a; *a = *b; *b = t; }"
        in
        match run ~state src "swap" [ Value.vptr a c; Value.vptr b c ] with
        | Sem.Returns (_, s') ->
          Alcotest.(check string) "a" "2"
            (Value.to_string (Heap.read_obj lenv s'.State.heap c a));
          Alcotest.(check string) "b" "1"
            (Value.to_string (Heap.read_obj lenv s'.State.heap c b))
        | _ -> Alcotest.fail "swap failed" );
    ( "struct field access through pointers",
      fun () ->
        let lenv =
          Layout.declare_struct Layout.empty "node"
            [ ("next", Ty.Cptr (Ty.Cstruct "node")); ("data", Ty.Cword (Ty.Unsigned, Ty.W32)) ]
        in
        let c = Ty.Cstruct "node" in
        let addr, h = Heap.alloc lenv Heap.empty c in
        let h =
          Heap.write_obj lenv h c addr
            (Value.Vstruct ("node", [ ("next", Value.null c); ("data", vu32 5) ]))
        in
        let state = State.with_heap State.empty h in
        let src =
          "struct node { struct node *next; unsigned data; };\n\
           unsigned bump(struct node *p) { p->data = p->data + 1u; return p->data; }"
        in
        check_ret "bump" "6" (run ~state src "bump" [ Value.vptr addr c ]) );
    ( "infinite loop runs out of fuel",
      fun () ->
        match run "void f() { while (1) { } }" "f" [] with
        | Sem.Diverges -> ()
        | _ -> Alcotest.fail "expected divergence" );
    ( "shift out of bounds faults",
      fun () ->
        check_fault "1 << 32" Ir.Shift_bounds
          (run "int f(int n) { return 1 << n; }" "f" [ v32 32 ]) );
  ]

(* Reference heap operations: the plain fold/filter definitions that
   [Heap.alloc] and [Heap.retype] compute with log-time map lookups. *)
module Ref_heap = struct
  let size lenv c = B.of_int (Layout.size_of lenv c)

  let retype lenv (h : Heap.t) c addr =
    let hi = B.add addr (size lenv c) in
    let overlapping a c' = B.lt a hi && B.lt addr (B.add a (size lenv c')) in
    let tags = Heap.BMap.filter (fun a c' -> not (overlapping a c')) h.Heap.tags in
    { h with Heap.tags = Heap.BMap.add addr c tags }

  let alloc lenv (h : Heap.t) c =
    let align = B.of_int (Layout.align_of lenv c) in
    let next =
      Heap.BMap.fold
        (fun a c' acc -> B.max acc (B.add a (size lenv c')))
        h.Heap.tags (B.of_int 0x1000)
    in
    let next = Heap.BMap.fold (fun a _ acc -> B.max acc (B.succ a)) h.Heap.bytes next in
    let addr = B.mul (B.fdiv (B.add next (B.pred align)) align) align in
    let h = retype lenv h c addr in
    (addr, Heap.write_bytes h addr (List.init (Layout.size_of lenv c) (fun _ -> 0)))
end

type heap_op =
  | Alloc of int (* type index *)
  | Retype of int * int * int (* type index, anchor tag index, byte offset *)
  | Untype of int * int (* anchor tag index, byte offset *)
  | Write of int * int (* anchor tag index, byte offset *)

let heap_lenv =
  let lenv =
    Layout.declare_struct Layout.empty "node"
      [ ("next", Ty.Cptr (Ty.Cstruct "node")); ("data", Ty.Cword (Ty.Unsigned, Ty.W32)) ]
  in
  Layout.declare_struct lenv "pair"
    [ ("a", Ty.Cword (Ty.Unsigned, Ty.W8)); ("b", Ty.Cword (Ty.Signed, Ty.W64)) ]

let heap_types =
  [|
    Ty.Cword (Ty.Unsigned, Ty.W8);
    Ty.Cword (Ty.Signed, Ty.W16);
    Ty.Cword (Ty.Unsigned, Ty.W32);
    Ty.Cword (Ty.Unsigned, Ty.W64);
    Ty.Cptr (Ty.Cstruct "node");
    Ty.Cstruct "node";
    Ty.Cstruct "pair";
  |]

let gen_heap_op =
  let open QCheck.Gen in
  let ty = int_range 0 (Array.length heap_types - 1) and anchor = int_range 0 50 in
  let off = int_range (-12) 24 in
  frequency
    [
      (4, map (fun t -> Alloc t) ty);
      (3, map3 (fun t a o -> Retype (t, a, o)) ty anchor off);
      (1, map2 (fun a o -> Untype (a, o)) anchor (oneofl [ 0; 0; 1 ]));
      (1, map2 (fun a o -> Write (a, o)) anchor (int_range 0 64));
    ]

let print_heap_op = function
  | Alloc t -> Printf.sprintf "alloc %d" t
  | Retype (t, a, o) -> Printf.sprintf "retype %d @%d%+d" t a o
  | Untype (a, o) -> Printf.sprintf "untype @%d%+d" a o
  | Write (a, o) -> Printf.sprintf "write @%d%+d" a o

(* Each step runs on both heaps; a step is addressed relative to an object
   the heap already has, so retypes land on, inside and across objects. *)
let heap_ops_agree ops =
  let lenv = heap_lenv in
  let at (h : Heap.t) a o =
    match Heap.tagged_objects h with
    | [] -> B.of_int (0x1000 + o)
    | objs -> B.add (fst (List.nth objs (a mod List.length objs))) (B.of_int o)
  in
  let step (h, r) op =
    match op with
    | Alloc t ->
      let c = heap_types.(t) in
      let a, h = Heap.alloc lenv h c and a', r = Ref_heap.alloc lenv r c in
      if not (B.equal a a') then
        QCheck.Test.fail_reportf "alloc at %s, reference %s" (B.to_string a) (B.to_string a');
      (h, r)
    | Retype (t, a, o) ->
      let addr = at h a o in
      (Heap.retype lenv h heap_types.(t) addr, Ref_heap.retype lenv r heap_types.(t) addr)
    | Untype (a, o) ->
      let addr = at h a o in
      (Heap.untype h addr, Heap.untype r addr)
    | Write (a, o) ->
      let addr = at h a o in
      (Heap.write_byte h addr 0xAB, Heap.write_byte r addr 0xAB)
  in
  List.fold_left
    (fun (h, r) op ->
      let h, r = step (h, r) op in
      if not (Heap.equal h r) then QCheck.Test.fail_reportf "heaps differ after %s" (print_heap_op op);
      (h, r))
    (Heap.empty, Heap.empty) ops
  |> ignore;
  true

let heap_props =
  [
    QCheck.Test.make ~name:"heap alloc/retype/untype match the fold/filter reference" ~count:300
      (QCheck.make
         ~print:QCheck.Print.(list print_heap_op)
         QCheck.Gen.(list_size (int_range 1 60) gen_heap_op))
      heap_ops_agree;
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    (heap_tests @ translation_tests @ exec_tests)
  @ List.map QCheck_alcotest.to_alcotest heap_props
