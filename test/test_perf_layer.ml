(* PR 3's performance layer: term-order/equality consistency, hash-cons
   soundness and the memoized derivation checker.

   The ordering/equality properties are the bugfix half (compare_t used to
   ignore the sort on Var, so ordered containers could identify terms that
   [equal] distinguishes); the differentials are the performance half —
   every fast path must be observationally identical to the slow one. *)

module B = Ac_bignum
module T = Ac_prover.Term
module Driver = Autocorres.Driver
module Check_cache = Autocorres.Check_cache
module Thm = Ac_kernel.Thm
module Csources = Ac_cases.Csources

(* ------------------------------------------------------------------ *)
(* Term generators.  A deliberately tiny vocabulary (two names, two
   sorts, small constants, depth <= 2) so random pairs collide often
   enough to exercise the [equal]/[compare_t = 0] direction, and
   same-name-different-sort vars probe exactly the fixed bug. *)

let gen_term =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map T.int_of (int_range (-3) 3);
        oneofl
          [ T.Var ("x", T.Sint); T.Var ("x", T.Sbool); T.Var ("y", T.Sint);
            T.tt; T.ff ] ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 (fun a b -> T.App (T.Add, [ a; b ])) (go (n - 1)) (go (n - 1));
          map2 (fun a b -> T.App (T.Eq, [ a; b ])) (go (n - 1)) (go (n - 1));
          map (fun a -> T.App (T.Neg, [ a ])) (go (n - 1));
          map (fun a -> T.App (T.Uf "f", [ a ])) (go (n - 1)) ]
  in
  let* depth = int_range 0 2 in
  go depth

(* A structural copy sharing no nodes with the original, so the
   properties cannot be satisfied by the [==] fast paths alone. *)
let rec deep_copy (t : T.t) : T.t =
  match t with
  | T.Int n -> T.Int (B.add n B.zero)
  | T.Bool b -> T.Bool b
  | T.Var (x, s) -> T.Var (String.init (String.length x) (String.get x), s)
  | T.App (f, xs) -> T.App (f, List.map deep_copy xs)

(* Pairs biased towards equality: half the time b is a deep copy of a. *)
let gen_pair =
  let open QCheck.Gen in
  let* a = gen_term in
  let* copy = bool in
  let+ b = if copy then return (deep_copy a) else gen_term in
  (a, b)

let arb_pair =
  QCheck.make ~print:(fun (a, b) -> T.to_string a ^ " / " ^ T.to_string b) gen_pair

let arb_triple =
  QCheck.make
    ~print:(fun (a, (b, c)) ->
      String.concat " / " (List.map T.to_string [ a; b; c ]))
    QCheck.Gen.(pair gen_term (pair gen_term gen_term))

let sign n = compare n 0

let props =
  let open QCheck in
  [
    Test.make ~name:"equal a b <=> compare_t a b = 0" ~count:2000 arb_pair
      (fun (a, b) -> T.equal a b = (T.compare_t a b = 0));
    Test.make ~name:"compare_t antisymmetry" ~count:2000 arb_pair (fun (a, b) ->
        sign (T.compare_t a b) = -sign (T.compare_t b a));
    Test.make ~name:"compare_t transitivity" ~count:2000 arb_triple
      (fun (a, (b, c)) ->
        let ab = T.compare_t a b and bc = T.compare_t b c in
        if ab <= 0 && bc <= 0 then T.compare_t a c <= 0 else true);
    Test.make ~name:"hash-cons soundness: hc a == hc b <=> equal a b" ~count:2000
      arb_pair
      (fun (a, b) -> (T.hc a == T.hc b) = T.equal a b);
    Test.make ~name:"hc preserves the term" ~count:1000
      (QCheck.make ~print:T.to_string gen_term)
      (fun a -> T.equal (T.hc a) a);
  ]

let opts = { Driver.default_options with Driver.keep_going = true }

(* ------------------------------------------------------------------ *)
(* Cached vs uncached derivation checking: over every theorem the corpus
   produces, both modes accept; over a corrupted derivation, both
   reject. *)

let test_check_differential () =
  List.iter
    (fun (name, src) ->
      let res = Driver.run ~options:opts src in
      Alcotest.(check bool)
        (name ^ ": uncached accepts") true
        (Driver.check_all ~cached:false res = Ok ());
      Alcotest.(check bool)
        (name ^ ": cached accepts") true
        (Driver.check_all ~cached:true res = Ok ()))
    Csources.all

(* The kernel deliberately exposes no way to build a theorem without
   running [Rules.infer] — not even for tests — so the corrupted
   certificate the auditors must catch is a *genuine* derivation
   presented under the wrong context: gcd's end-to-end chain was built
   under its word-abstraction context (whose [wvars] the W_* steps
   depend on), so auditing it under the run context, whose [wvars] are
   empty, re-runs the same inferences against premises they cannot
   reproduce.  Both the uncached and the cached checker must reject. *)
let test_check_rejects_corruption () =
  let res = Driver.run ~options:opts Csources.gcd_c in
  let fr = List.hd res.Driver.funcs in
  let chain =
    match fr.Driver.fr_chain with
    | Some t -> t
    | None -> Alcotest.fail "gcd produced no end-to-end chain theorem"
  in
  (* Sanity: the derivation is genuine — under the context it was built
     with (recomputed by check_all), everything accepts. *)
  Alcotest.(check bool) "derivation is genuine" true
    (Driver.check_all ~cached:false res = Ok ());
  let is_err = function Error _ -> true | Ok () -> false in
  Alcotest.(check bool)
    "kernel check rejects the wrong-context derivation" true
    (is_err (Thm.check res.Driver.ctx chain));
  let cache = Check_cache.create res.Driver.ctx in
  Alcotest.(check bool)
    "cached check rejects the wrong-context derivation" true
    (is_err (Check_cache.check cache chain));
  (* And a fresh cache re-validates from scratch: its memo table is
     private and dies with it, so nothing an earlier cache (or anyone
     else) did can pre-seed a later one. *)
  let good = fr.Driver.fr_l2_thm in
  let c1 = Check_cache.create res.Driver.ctx in
  Alcotest.(check bool) "first cache accepts" true
    (Check_cache.check c1 good = Ok ());
  let c2 = Check_cache.create res.Driver.ctx in
  Alcotest.(check bool) "second cache accepts" true
    (Check_cache.check c2 good = Ok ());
  Alcotest.(check bool) "second cache re-walked the derivation" true
    (Check_cache.misses c2 > 0)

(* Pin down the wvars-locality invariant stated next to [Rules.infer]
   (and relied on by [Driver.check_all]'s per-function grouping): the
   L1/L2/HL component derivations contain no wvars-sensitive rule, so
   they must check under the run context too, not only under the
   function's recomputed word-abstraction context.  If a rule outside
   the W_* family starts reading [ctx.wvars], this fails. *)
let test_components_check_under_run_ctx () =
  List.iter
    (fun (name, src) ->
      let res = Driver.run ~options:opts src in
      List.iter
        (fun fr ->
          List.iter
            (fun t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: %s checks under the run context" name
                   fr.Driver.fr_name (Thm.rule_name t))
                true
                (Thm.check res.Driver.ctx t = Ok ()))
            (fr.Driver.fr_l1_thm :: fr.Driver.fr_l2_thm :: fr.Driver.fr_hl_thms))
        res.Driver.funcs)
    Csources.all

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      ("cached vs uncached check over corpus", `Slow, test_check_differential);
      ("both check modes reject corruption", `Quick, test_check_rejects_corruption);
      ( "components check under the run context",
        `Slow,
        test_components_check_under_run_ctx );
    ]
