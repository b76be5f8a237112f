(* Property-based soundness tests for the trusted computational pieces:
   the kernel expression simplifier preserves evaluation, the prover's
   term simplifier preserves ground evaluation, linear-arithmetic verdicts
   agree with brute-force search, and the byte codec round-trips. *)

module B = Ac_bignum
module W = Ac_word
module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout
module T = Ac_prover.Term
module SMap = Map.Make (String)

let lenv = Layout.empty

(* ------------------------------------------------------------------ *)
(* Random pure expressions over a small environment. *)

let env_vars =
  [ ("i", Ty.Tint); ("j", Ty.Tint); ("n", Ty.Tnat); ("m", Ty.Tnat); ("b", Ty.Tbool) ]

let gen_expr =
  let open QCheck.Gen in
  let leaf_int = oneof [ map E.int_e (int_range (-20) 20);
                         oneofl [ E.Var ("i", Ty.Tint); E.Var ("j", Ty.Tint) ] ] in
  let leaf_nat = oneof [ map E.nat_e (int_range 0 20);
                         oneofl [ E.Var ("n", Ty.Tnat); E.Var ("m", Ty.Tnat) ] ] in
  let rec expr ty n =
    if n = 0 then (match ty with `I -> leaf_int | `N -> leaf_nat | `B -> bool_leaf)
    else begin
      match ty with
      | `I ->
        oneof
          [ leaf_int;
            map2 (fun a c -> E.Binop (E.Add, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map2 (fun a c -> E.Binop (E.Sub, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map2 (fun a c -> E.Binop (E.Mul, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map (fun a -> E.Unop (E.Neg, a)) (expr `I (n - 1));
            map3 (fun c a x -> E.Ite (c, a, x)) (expr `B (n - 1)) (expr `I (n - 1))
              (expr `I (n - 1)) ]
      | `N ->
        oneof
          [ leaf_nat;
            map2 (fun a c -> E.Binop (E.Add, a, c)) (expr `N (n - 1)) (expr `N (n - 1));
            map2 (fun a c -> E.Binop (E.Sub, a, c)) (expr `N (n - 1)) (expr `N (n - 1));
            map3 (fun c a x -> E.Ite (c, a, x)) (expr `B (n - 1)) (expr `N (n - 1))
              (expr `N (n - 1)) ]
      | `B ->
        oneof
          [ bool_leaf;
            map2 (fun a c -> E.Binop (E.Lt, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map2 (fun a c -> E.Binop (E.Le, a, c)) (expr `N (n - 1)) (expr `N (n - 1));
            map2 (fun a c -> E.Binop (E.Eq, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map2 E.and_e (expr `B (n - 1)) (expr `B (n - 1));
            map2 E.or_e (expr `B (n - 1)) (expr `B (n - 1));
            map E.not_e (expr `B (n - 1)) ]
    end
  and bool_leaf =
    oneof [ oneofl [ E.true_e; E.false_e ]; return (E.Var ("b", Ty.Tbool)) ]
  in
  let* depth = int_range 0 4 in
  let* k = oneofl [ `I; `N; `B ] in
  expr k depth

let gen_env =
  let open QCheck.Gen in
  let* i = int_range (-30) 30 in
  let* j = int_range (-30) 30 in
  let* n = int_range 0 30 in
  let* m = int_range 0 30 in
  let* b = bool in
  return
    (SMap.of_list
       [ ("i", Value.Vint (B.of_int i)); ("j", Value.Vint (B.of_int j));
         ("n", Value.vnat (B.of_int n)); ("m", Value.vnat (B.of_int m));
         ("b", Value.Vbool b) ])

let arb_expr_env =
  QCheck.make
    ~print:(fun (e, _) -> Ac_lang.Pretty.expr_to_string e)
    QCheck.Gen.(pair gen_expr gen_env)

(* ------------------------------------------------------------------ *)
(* Random prover terms. *)

let gen_term =
  let open QCheck.Gen in
  let leaf =
    oneof [ map T.int_of (int_range (-20) 20); oneofl [ T.Var ("x", T.Sint); T.Var ("y", T.Sint) ] ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 T.add_t (go (n - 1)) (go (n - 1));
          map2 T.sub_t (go (n - 1)) (go (n - 1));
          map2 (fun a b -> T.mul_t (T.int_of 3) (T.add_t a b)) (go (n - 1)) (go (n - 1));
          map (fun a -> T.App (T.Neg, [ a ])) (go (n - 1)) ]
  in
  let* depth = int_range 0 4 in
  go depth

let arb_term_env =
  QCheck.make
    ~print:(fun (t, _) -> T.to_string t)
    QCheck.Gen.(
      pair gen_term (pair (int_range (-15) 15) (int_range (-15) 15)))

(* ------------------------------------------------------------------ *)
(* Random monadic programs with guards, for the guard-discharge pass.
   Every value is a u32 word, so arithmetic is total (modular); the only
   failure source is a [Guard] evaluating to false — exactly the outcome
   the discharge pass claims to rule out for the guards it removes.  The
   property is differential: the kernel-checked rewrite must agree with
   the original program under the interpreter on every probed input, so a
   discharged guard that could actually fail shows up as [Fails] on one
   side and a normal outcome on the other. *)

module M = Ac_monad.M
module Interp = Ac_monad.Interp
module State = Ac_simpl.State
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

let u32 = Ty.Tword (Ty.Unsigned, Ty.W32)
let w32 n = E.word_e Ty.Unsigned Ty.W32 n

let gen_wexpr vars n =
  let open QCheck.Gen in
  let leaf =
    oneof [ map w32 (int_range 0 40); map (fun x -> E.Var (x, u32)) (oneofl vars) ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 (fun a b -> E.Binop (E.Add, a, b)) (go (n - 1)) (go (n - 1));
          map2 (fun a b -> E.Binop (E.Sub, a, b)) (go (n - 1)) (go (n - 1));
          map2 (fun a b -> E.Binop (E.Mul, a, b)) (go (n - 1)) (go (n - 1)) ]
  in
  go n

let gen_cond vars n =
  let open QCheck.Gen in
  let cmp =
    let* op = oneofl [ E.Lt; E.Le; E.Eq; E.Ne; E.Gt; E.Ge ] in
    map2 (fun a b -> E.Binop (op, a, b)) (gen_wexpr vars n) (gen_wexpr vars n)
  in
  oneof [ cmp; map2 E.and_e cmp cmp; map2 E.or_e cmp cmp; map E.not_e cmp ]

let gen_guard_kind =
  QCheck.Gen.oneofl
    [ Ir.Div_by_zero; Ir.Shift_bounds; Ir.Array_bounds; Ir.Unsigned_overflow ]

let rec gen_prog vars n =
  let open QCheck.Gen in
  if n = 0 then map (fun e -> M.Return e) (gen_wexpr vars 1)
  else
    oneof
      [ map (fun e -> M.Return e) (gen_wexpr vars 2);
        map (fun e -> M.Throw e) (gen_wexpr vars 1);
        (let* k = gen_guard_kind in
         let* c = gen_cond vars 1 in
         let* rest = gen_prog vars (n - 1) in
         return (M.Bind (M.Guard (k, c), M.Pwild, rest)));
        (let* c = gen_cond vars 1 in
         map2 (fun a b -> M.Cond (c, a, b)) (gen_prog vars (n - 1)) (gen_prog vars (n - 1)));
        (let z = Printf.sprintf "z%d" (List.length vars) in
         let* e = gen_wexpr vars 2 in
         let* rest = gen_prog (z :: vars) (n - 1) in
         return (M.Bind (M.Return e, M.Pvar (z, u32), rest)));
        (let* g = gen_wexpr vars 2 in
         let* rest = gen_prog vars (n - 1) in
         return (M.Bind (M.Modify [ M.Global_set ("g", g) ], M.Pwild, rest)));
        (let i = Printf.sprintf "w%d" (List.length vars) in
         let z = Printf.sprintf "z%d" (List.length vars) in
         let* bound = int_range 0 6 in
         let* k = gen_guard_kind in
         let* c = gen_cond (i :: vars) 1 in
         let* init = gen_wexpr vars 1 in
         let body =
           M.Bind
             (M.Guard (k, c), M.Pwild, M.Return (E.Binop (E.Add, E.Var (i, u32), w32 1)))
         in
         let loop =
           M.While (M.Pvar (i, u32), E.Binop (E.Lt, E.Var (i, u32), w32 bound), body, init)
         in
         let* rest = gen_prog (z :: vars) (n - 1) in
         return (M.Bind (loop, M.Pvar (z, u32), rest))) ]

let gen_mprog =
  QCheck.Gen.(
    let* depth = int_range 1 4 in
    gen_prog [ "x"; "y" ] depth)

let arb_mprog =
  QCheck.make
    ~print:(fun (m, _) -> Ac_monad.Mprint.to_string m)
    QCheck.Gen.(pair gen_mprog (pair (int_range 0 0xFFFF) (int_range 0 0xFFFF)))

let mk_ufunc name params body : M.func =
  { M.name; params; ret_ty = u32; body; convention = M.Lambda_bound;
    heap_model = M.Byte_level; locals = [] }

(* [f] (with body m / m') applied to every probe input must behave
   identically under the interpreter: a discharged guard that could
   actually fail shows up as [Fails] on one side only. *)
let funcs_agree (funcs : M.t -> M.func list) (m : M.t) (m' : M.t) probes =
  let prog body = { M.lenv; globals = [ ("g", u32) ]; funcs = funcs body; heap_types = [] } in
  let state0 =
    State.set_global State.empty "g" (Value.vword Ty.Unsigned (W.of_int W.W32 0))
  in
  let agree (vx, vy) =
    let args =
      [ Value.vword Ty.Unsigned (W.of_int W.W32 vx);
        Value.vword Ty.Unsigned (W.of_int W.W32 vy) ]
    in
    let r = Interp.run_func (prog m) ~fuel:5000 state0 "f" args in
    let r' = Interp.run_func (prog m') ~fuel:5000 state0 "f" args in
    match (r, r') with
    | Interp.Returns (v, s), Interp.Returns (v', s') ->
      Value.equal v v' && Value.equal (State.get_global s "g") (State.get_global s' "g")
    | Interp.Throws (v, _), Interp.Throws (v', _) -> Value.equal v v'
    | Interp.Fails p, Interp.Fails q -> String.equal p q
    | Interp.Gets_stuck _, Interp.Gets_stuck _ -> true
    | Interp.Diverges, Interp.Diverges -> true
    | _ -> false
  in
  List.for_all agree probes

let discharge_agrees ((m : M.t), (a, b)) =
  let ctx = Rules.empty_ctx lenv in
  let cert = Ac_analysis.infer_cert lenv m in
  match Thm.by_opt ctx (Rules.Rule_guard_true (m, cert)) [] with
  | None -> false (* the kernel must accept the analysis's own certificate *)
  | Some thm ->
    (match Thm.check ctx thm with Result.Ok () -> true | Result.Error _ -> false)
    &&
    let m' = match Thm.concl thm with J.Equiv (m', _) -> m' | _ -> m in
    funcs_agree
      (fun body -> [ mk_ufunc "f" [ ("x", u32); ("y", u32) ] body ])
      m m'
      [ (a, b); (0, 0); (1, 0xFFFFFFFF); (31, 2); (0xFFFFFFFF, 0xFFFFFFFF) ]

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries: on random two-function programs, the
   summary-assisted discharge of the caller must (1) produce a
   certificate the kernel accepts, (2) agree with the original program
   under the interpreter on every probe (differential soundness: no
   refutable guard is ever discharged), and (3) discharge at least every
   guard the intraprocedural pass discharges (monotone improvement: a
   summary can only add facts, never lose them). *)

let gen_callprog =
  QCheck.Gen.(
    let* hdepth = int_range 1 3 in
    let* hbody = gen_prog [ "a" ] hdepth in
    let* arg = gen_wexpr [ "x"; "y" ] 1 in
    let* fdepth = int_range 1 3 in
    let* rest = gen_prog [ "z"; "x"; "y" ] fdepth in
    return (hbody, M.Bind (M.Call ("h", [ arg ]), M.Pvar ("z", u32), rest)))

let arb_callprog =
  QCheck.make
    ~print:(fun ((hbody, fbody), _) ->
      "h(a) = " ^ Ac_monad.Mprint.to_string hbody ^ "\nf(x,y) = "
      ^ Ac_monad.Mprint.to_string fbody)
    QCheck.Gen.(pair gen_callprog (pair (int_range 0 0xFFFF) (int_range 0 0xFFFF)))

let interproc_discharge_sound (((hbody : M.t), (fbody : M.t)), (a, b)) =
  let hf = mk_ufunc "h" [ ("a", u32) ] hbody in
  let ff = mk_ufunc "f" [ ("x", u32); ("y", u32) ] fbody in
  let fbodies = [ hf; ff ] in
  let sums, _ = Ac_analysis.Summary.compute lenv fbodies in
  let ctx = { (Rules.empty_ctx lenv) with Rules.fbodies } in
  let discharged cert =
    match Thm.by_opt ctx (Rules.Rule_guard_true (fbody, cert)) [] with
    | None -> None
    | Some thm -> (
      match Thm.check ctx thm with
      | Result.Error _ -> None
      | Result.Ok () -> (
        match Thm.concl thm with J.Equiv (m', _) -> Some m' | _ -> None))
  in
  match discharged (Ac_analysis.infer_cert ~sums lenv fbody) with
  | None -> false (* the kernel must accept the analysis's own certificate *)
  | Some inter ->
    let intra =
      match discharged (Ac_analysis.infer_cert lenv fbody) with
      | Some m -> m
      | None -> fbody
    in
    (* Monotone improvement. *)
    Ac_analysis.guard_count inter <= Ac_analysis.guard_count intra
    (* Differential soundness, caller body rewritten, callee kept. *)
    && funcs_agree
         (fun body -> [ hf; mk_ufunc "f" [ ("x", u32); ("y", u32) ] body ])
         fbody inter
         [ (a, b); (0, 0); (1, 0xFFFFFFFF); (31, 2); (0xFFFFFFFF, 0xFFFFFFFF) ]

(* ------------------------------------------------------------------ *)
(* The kernel's term maps ([Esimp.simp], [Rules.msimp],
   [Rules.discharge_guards], [M.subst]) return their input itself when
   nothing changed.  Pinned against reference copies of the maps as they
   were before, which rebuilt every node: the results must be
   structurally equal, and physically the input whenever they are
   structurally equal to it.  The short-circuiting occurrence checks must
   agree with the free-variable sets they replace. *)

module Ref_maps = struct
  let map_children f (e : E.t) : E.t =
    match e with
    | E.Const _ | E.Var _ | E.Global _ -> e
    | E.Unop (o, x) -> E.Unop (o, f x)
    | E.Binop (o, x, y) -> E.Binop (o, f x, f y)
    | E.Ite (c, x, y) -> E.Ite (f c, f x, f y)
    | E.Cast (t, x) -> E.Cast (t, f x)
    | E.OfWord (t, x) -> E.OfWord (t, f x)
    | E.HeapRead (c, x) -> E.HeapRead (c, f x)
    | E.TypedRead (c, x) -> E.TypedRead (c, f x)
    | E.IsValid (c, x) -> E.IsValid (c, f x)
    | E.PtrAligned (c, x) -> E.PtrAligned (c, f x)
    | E.PtrSpan (c, x) -> E.PtrSpan (c, f x)
    | E.PtrAdd (c, x, y) -> E.PtrAdd (c, f x, f y)
    | E.FieldAddr (s, fl, x) -> E.FieldAddr (s, fl, f x)
    | E.StructGet (s, fl, x) -> E.StructGet (s, fl, f x)
    | E.StructSet (s, fl, x, y) -> E.StructSet (s, fl, f x, f y)
    | E.Tuple xs -> E.Tuple (List.map f xs)
    | E.Proj (i, x) -> E.Proj (i, f x)

  let rec is_closed_pure (e : E.t) =
    match e with
    | E.Var _ | E.Global _ | E.HeapRead _ | E.TypedRead _ | E.IsValid _ -> false
    | _ -> List.for_all is_closed_pure (E.children e)

  let fold_constant lenv (e : E.t) : E.t =
    match e with
    | E.Const _ -> e
    | _ ->
      if is_closed_pure e then begin
        match E.eval_pure lenv SMap.empty e with
        | Value.Vtuple _ | Value.Vstruct _ -> e
        | v -> E.Const v
        | exception E.Eval_stuck _ -> e
      end
      else e

  let rec esimp lenv (e : E.t) : E.t =
    let e = map_children (esimp lenv) e in
    let e =
      match e with
      | E.Proj (i, E.Tuple es) when i < List.length es -> List.nth es i
      | E.Binop (E.And, a, b) -> E.and_e a b
      | E.Binop (E.Or, a, b) -> E.or_e a b
      | E.Binop (E.Imp, a, b) -> E.imp_e a b
      | E.Unop (E.Not, x) -> E.not_e x
      | E.Ite (E.Const (Value.Vbool true), a, _) -> a
      | E.Ite (E.Const (Value.Vbool false), _, b) -> b
      | E.Ite (_, a, b) when E.equal a b -> a
      | E.Binop (E.Eq, a, b) when E.equal a b && not (E.reads_state a) -> E.true_e
      | e -> e
    in
    fold_constant lenv e

  let rec msimp lenv (m : M.t) : M.t =
    let s e = esimp lenv e in
    match m with
    | M.Return e -> M.Return (s e)
    | M.Gets e -> if E.reads_state (s e) then M.Gets (s e) else M.Return (s e)
    | M.Guard (k, e) -> M.Guard (k, s e)
    | M.Fail -> M.Fail
    | M.Unknown t -> M.Unknown t
    | M.Throw e -> M.Throw (s e)
    | M.Modify ms ->
      M.Modify
        (List.map
           (function
             | M.Heap_write (c, p, v) -> M.Heap_write (c, s p, s v)
             | M.Typed_write (c, p, v) -> M.Typed_write (c, s p, s v)
             | M.Global_set (x, e) -> M.Global_set (x, s e)
             | M.Local_set (x, e) -> M.Local_set (x, s e)
             | M.Retype (c, e) -> M.Retype (c, s e))
           ms)
    | M.Bind (a, p, b) -> M.Bind (msimp lenv a, p, msimp lenv b)
    | M.Try (a, p, b) -> M.Try (msimp lenv a, p, msimp lenv b)
    | M.Cond (c, a, b) -> M.Cond (s c, msimp lenv a, msimp lenv b)
    | M.While (p, c, body, init) -> M.While (p, s c, msimp lenv body, s init)
    | M.Call (f, args) -> M.Call (f, List.map s args)
    | M.Exec_concrete (f, args) -> M.Exec_concrete (f, List.map s args)

  let fact_kind (e : E.t) : Rules.fact_kind =
    let rec scan e (seen_valid, seen_other) =
      let acc =
        match e with
        | E.IsValid _ -> (true, seen_other)
        | E.HeapRead _ | E.TypedRead _ | E.Global _ -> (seen_valid, true)
        | _ -> (seen_valid, seen_other)
      in
      List.fold_left (fun acc c -> scan c acc) acc (E.children e)
    in
    match scan e (false, false) with
    | _, true -> Rules.Ffragile
    | true, false -> Rules.Fvalidity
    | false, false -> Rules.Fpure

  let fact_survives (k : Rules.kills) (f : E.t) =
    match fact_kind f with
    | Rules.Fpure -> true
    | Rules.Fvalidity -> not k.Rules.k_retype_or_call
    | Rules.Ffragile -> not (k.Rules.k_values || k.Rules.k_retype_or_call)

  let drop_rebound vars facts =
    List.filter (fun f -> not (List.exists (fun v -> List.mem v vars) (E.free_vars f))) facts

  let rec discharge lenv (facts : E.t list) (m : M.t) : M.t * E.t list =
    let survives = fact_survives and drop = drop_rebound in
    (* the unchanged helpers *)
    let open Rules in
    match m with
    | M.Guard (k, g) ->
      let parts = conjuncts g in
      let remaining = List.filter (fun c -> not (established facts c)) parts in
      let m' =
        match remaining with
        | [] -> M.Return E.unit_e
        | parts' -> M.Guard (k, E.conj parts')
      in
      (m', parts @ facts)
    | M.Return _ | M.Gets _ | M.Throw _ | M.Fail | M.Unknown _ -> (m, facts)
    | M.Modify sms ->
      let k = List.fold_left (fun k sm -> kills_union k (smod_kills sm)) no_kills sms in
      (m, List.filter (survives k) facts)
    | M.Bind (a, p, b) ->
      let a', facts1 = discharge lenv facts a in
      let facts2 = drop (List.map fst (M.pat_vars p)) facts1 in
      let b', facts3 = discharge lenv facts2 b in
      (M.Bind (a', p, b'), facts3)
    | M.Try (a, p, h) ->
      let a', facts_a = discharge lenv facts a in
      let facts_h_in =
        drop (List.map fst (M.pat_vars p))
          (List.filter (survives (term_kills a)) facts)
      in
      let h', facts_h = discharge lenv facts_h_in h in
      (M.Try (a', p, h'), List.filter (fun f -> List.exists (E.equal f) facts_h) facts_a)
    | M.Cond (c, a, b) ->
      let a', facts_a = discharge lenv (conjuncts c @ facts) a in
      let b', facts_b = discharge lenv (E.not_e c :: facts) b in
      (M.Cond (c, a', b'), List.filter (fun f -> List.exists (E.equal f) facts_b) facts_a)
    | M.While (p, c, body, init) ->
      let k = term_kills body in
      let inner_facts =
        conjuncts c
        @ drop (List.map fst (M.pat_vars p)) (List.filter (survives k) facts)
      in
      let body', _ = discharge lenv inner_facts body in
      (M.While (p, c, body', init), List.filter (survives k) facts)
    | M.Call _ | M.Exec_concrete _ -> (m, List.filter (survives all_kills) facts)

  let discharge_guards lenv m = fst (discharge lenv [] m)

  let binder_names (m : M.t) : string list =
    let acc = ref [] in
    let add p =
      List.iter (fun (x, _) -> if not (List.mem x !acc) then acc := x :: !acc) (M.pat_vars p)
    in
    let rec go m =
      match m with
      | M.Bind (a, p, b) | M.Try (a, p, b) ->
        add p;
        go a;
        go b
      | M.Cond (_, a, b) ->
        go a;
        go b
      | M.While (p, _, body, _) ->
        add p;
        go body
      | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Throw _ | M.Unknown _
      | M.Call _ | M.Exec_concrete _ ->
        ()
    in
    go m;
    !acc

  let capture_free (e : E.t) (b : M.t) =
    let binders = binder_names b in
    not (List.exists (fun v -> List.mem v binders) (E.free_vars e))

  let rec esubst (bindings : (string * E.t) list) (e : E.t) : E.t =
    match e with
    | E.Var (v, _) -> ( match List.assoc_opt v bindings with Some x -> x | None -> e)
    | _ -> map_children (esubst bindings) e

  let rec subst (bindings : (string * E.t) list) m =
    if bindings = [] then m
    else begin
      let sub_e = esubst bindings in
      let drop p bindings =
        let bound = List.map fst (M.pat_vars p) in
        List.filter (fun (x, _) -> not (List.mem x bound)) bindings
      in
      match m with
      | M.Return e -> M.Return (sub_e e)
      | M.Gets e -> M.Gets (sub_e e)
      | M.Throw e -> M.Throw (sub_e e)
      | M.Fail -> M.Fail
      | M.Unknown t -> M.Unknown t
      | M.Guard (k, e) -> M.Guard (k, sub_e e)
      | M.Modify ms ->
        M.Modify
          (List.map
             (function
               | M.Heap_write (c, p, v) -> M.Heap_write (c, sub_e p, sub_e v)
               | M.Typed_write (c, p, v) -> M.Typed_write (c, sub_e p, sub_e v)
               | M.Global_set (x, e) -> M.Global_set (x, sub_e e)
               | M.Local_set (x, e) -> M.Local_set (x, sub_e e)
               | M.Retype (c, e) -> M.Retype (c, sub_e e))
             ms)
      | M.Bind (a, p, b) -> M.Bind (subst bindings a, p, subst (drop p bindings) b)
      | M.Try (a, p, b) -> M.Try (subst bindings a, p, subst (drop p bindings) b)
      | M.Cond (c, a, b) -> M.Cond (sub_e c, subst bindings a, subst bindings b)
      | M.While (p, c, body, init) ->
        let inner = drop p bindings in
        M.While (p, esubst inner c, subst inner body, sub_e init)
      | M.Call (f, args) -> M.Call (f, List.map sub_e args)
      | M.Exec_concrete (f, args) -> M.Exec_concrete (f, List.map sub_e args)
    end
end

(* Random monadic terms for the map properties: the guard programs above,
   with some [Return]s turned into [Gets] (msimp's demotion case), guards
   duplicated (so discharge has something to delete), and boolean
   structure [Esimp] can simplify. *)
let gen_mterm =
  let open QCheck.Gen in
  let rec vary salt (m : M.t) : M.t =
    match m with
    | M.Return e when (Hashtbl.hash e + salt) land 3 = 0 -> M.Gets e
    | M.Return e when (Hashtbl.hash e + salt) land 3 = 1 ->
      M.Return (E.Ite (E.Binop (E.And, E.true_e, E.Binop (E.Eq, e, e)), e, w32 0))
    | M.Bind ((M.Guard _ as g), M.Pwild, rest) when salt land 1 = 0 ->
      M.Bind (g, M.Pwild, M.Bind (g, M.Pwild, vary (salt + 1) rest))
    | M.Bind (a, p, b) -> M.Bind (vary salt a, p, vary (salt + 7) b)
    | M.Cond (c, a, b) -> M.Cond (c, vary (salt + 3) a, vary (salt + 5) b)
    | M.While (p, c, body, init) -> M.While (p, c, vary (salt + 11) body, init)
    | m -> m
  in
  let* m = gen_mprog in
  let* salt = int_range 0 3 in
  return (vary salt m)

let arb_mterm = QCheck.make ~print:Ac_monad.Mprint.to_string gen_mterm

(* Guard facts over the state: [gen_expr] conjoined with heap reads,
   validity tests and globals. *)
let arb_fact =
  let open QCheck.Gen in
  let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
  let wrap e =
    oneofl
      [ e; E.IsValid (cty, e); E.TypedRead (cty, e); E.HeapRead (cty, e);
        E.Global ("g", Ty.Tint); E.Unop (E.Not, E.IsValid (cty, e)) ]
  in
  QCheck.make ~print:Ac_lang.Pretty.expr_to_string
    (let* a = gen_expr in
     let* b = gen_expr in
     let* a = wrap a in
     let* b = wrap b in
     oneofl [ a; E.Binop (E.And, a, b); E.Ite (a, b, a) ])

let names = [ "x"; "y"; "z2"; "z3"; "z4"; "z5"; "w2"; "w3"; "w4"; "w5"; "nope" ]

let shares_when_equal equal input result = (not (equal result input)) || result == input

let map_props =
  let open QCheck in
  [
    Test.make ~name:"esimp = rebuild-everything esimp, and shares when unchanged" ~count:800
      arb_expr_env (fun (e, _) ->
        let r = Ac_kernel.Esimp.simp lenv e in
        E.equal r (Ref_maps.esimp lenv e) && shares_when_equal E.equal e r);
    Test.make ~name:"msimp = rebuild-everything msimp, and shares when unchanged" ~count:600
      arb_mterm (fun m ->
        let r = Rules.msimp lenv m in
        M.equal r (Ref_maps.msimp lenv m)
        && shares_when_equal M.equal m r
        && Rules.msimp lenv r == r);
    Test.make
      ~name:"discharge_guards = rebuild-everything version, and shares when unchanged"
      ~count:600 arb_mterm (fun m ->
        let r = Rules.discharge_guards lenv m in
        M.equal r (Ref_maps.discharge_guards lenv m) && shares_when_equal M.equal m r);
    Test.make ~name:"M.subst = rebuild-everything subst, and shares when nothing applies"
      ~count:600
      (pair arb_mterm (make QCheck.Gen.(pair (oneofl names) (gen_wexpr [ "x"; "q" ] 1))))
      (fun (m, (x, e)) ->
        let r = M.subst [ (x, e) ] m in
        M.equal r (Ref_maps.subst [ (x, e) ] m) && (M.occurs_free x m || r == m));
    Test.make ~name:"binder_names / capture_free = the list-scanning reference" ~count:600
      (pair arb_mterm (make (gen_wexpr [ "x"; "y"; "z2"; "w3"; "q" ] 2)))
      (fun (m, e) ->
        Rules.binder_names m = Ref_maps.binder_names m
        && Rules.capture_free e m = Ref_maps.capture_free e m);
    Test.make ~name:"fact_kind = the tuple-threading reference" ~count:800 arb_fact
      (fun e -> Rules.fact_kind e = Ref_maps.fact_kind e);
    Test.make ~name:"occurs_free / mem_var agree with free_vars" ~count:600 arb_mterm
      (fun m ->
        List.for_all
          (fun x ->
            M.occurs_free x m = List.mem x (M.free_vars m)
            && (let ok = ref true in
                M.iter_exprs
                  (fun e -> if E.mem_var x e <> List.mem x (E.free_vars e) then ok := false)
                  m;
                !ok))
          names);
  ]

(* ------------------------------------------------------------------ *)
(* The hybrid [Ac_bignum] (native ints below 2^61, digit arrays above)
   against [Ref_bignum], the all-digit-array implementation it replaced:
   every operation of the interface must return the same value — compared
   by decimal text and by [hash], which must not have changed — and raise
   the same exception.  Operands sit on both sides of each boundary the
   representation has (2^30 for the overflow-free product, 2^61 for the
   small range, 2^62..2^64 at and past the native int) and beyond. *)

module R = Ref_bignum

(* How an operand is built, replayed in each implementation. *)
type operand =
  | Native of int (* of_int, the whole native range *)
  | Near of bool * int * int (* ±(2^k + delta) *)
  | Digits of bool * int list (* ±(base-2^16 digits, most significant first) *)

let build_r = function
  | Native n -> R.of_int n
  | Near (neg, k, d) ->
    let v = R.add (R.shift_left R.one k) (R.of_int d) in
    if neg then R.neg v else v
  | Digits (neg, ds) ->
    let v = List.fold_left (fun acc d -> R.add (R.shift_left acc 16) (R.of_int d)) R.zero ds in
    if neg then R.neg v else v

let build_b = function
  | Native n -> B.of_int n
  | Near (neg, k, d) ->
    let v = B.add (B.shift_left B.one k) (B.of_int d) in
    if neg then B.neg v else v
  | Digits (neg, ds) ->
    let v = List.fold_left (fun acc d -> B.add (B.shift_left acc 16) (B.of_int d)) B.zero ds in
    if neg then B.neg v else v

let gen_operand =
  let open QCheck.Gen in
  frequency
    [ (2, map (fun n -> Native n) (oneof [ int; int_range (-100) 100; oneofl [ min_int; max_int ] ]));
      ( 5,
        map3
          (fun neg k d -> Near (neg, k, d))
          bool
          (oneofl [ 0; 16; 29; 30; 31; 32; 47; 48; 60; 61; 62; 63; 64; 65; 96; 128 ])
          (int_range (-4) 4) );
      ( 3,
        map2
          (fun neg ds -> Digits (neg, ds))
          bool
          (list_size (int_range 0 9)
             (frequency [ (3, int_range 0 0xFFFF); (1, oneofl [ 0; 1; 0x1FFF; 0x2000; 0xFFFF ]) ]))
      ) ]

let print_operand o = R.to_string (build_r o)

(* A bit position, shift amount or width. *)
let gen_bits =
  QCheck.Gen.(
    frequency
      [ (3, oneofl [ 0; 1; 8; 16; 29; 30; 31; 32; 33; 48; 60; 61; 62; 63; 64; 65; 128 ]);
        (1, int_range 0 140) ])

let arb_bignum_case =
  QCheck.make
    ~print:(fun (a, b, n) -> Printf.sprintf "a=%s b=%s n=%d" (print_operand a) (print_operand b) n)
    QCheck.Gen.(triple gen_operand gen_operand gen_bits)

(* One rendering for both implementations' results and exceptions. *)
let outcome f =
  match f () with
  | s -> s
  | exception (R.Division_by_zero | B.Division_by_zero) -> "!Division_by_zero"
  | exception (R.Negative_operand m | B.Negative_operand m) -> "!Negative_operand " ^ m
  | exception Invalid_argument m -> "!Invalid_argument " ^ m
  | exception Failure m -> "!Failure " ^ m

(* Results are compared as sign and base-2^16 digits plus [hash]: decimal
   text costs a long division per digit, so [to_string] is checked on the
   operands only.  The hybrid's digits are read through its interface. *)
let show_r (x : R.t) =
  Printf.sprintf "%d[%s]#%d" x.R.sign
    (String.concat "," (List.rev_map string_of_int (Array.to_list x.R.mag)))
    (R.hash x)

let digits_b x =
  let rec go acc x = if B.is_zero x then acc else go (B.to_int_exn (B.mod_pow2 x 16) :: acc) (B.shift_right x 16) in
  go [] (B.abs x)

(* A hybrid result must also be canonical: structurally equal to the same
   value rebuilt from its digits, so the polymorphic [=] keeps agreeing
   with [B.equal]. *)
let show_b x =
  let ds = digits_b x in
  let rebuilt = List.fold_left (fun acc d -> B.add (B.shift_left acc 16) (B.of_int d)) B.zero ds in
  let rebuilt = if B.sign x < 0 then B.neg rebuilt else rebuilt in
  Printf.sprintf "%d[%s]#%d" (B.sign x) (String.concat "," (List.map string_of_int ds)) (B.hash x)
  ^ if x = rebuilt then "" else " (non-canonical)"

let pair show (q, r) = show q ^ " , " ^ show r
let sgn c = string_of_int (Int.compare c 0)

let bignum_agrees (oa, ob, n) =
  let ra = build_r oa and rb = build_r ob and ha = build_b oa and hb = build_b ob in
  let text = R.to_string ra in
  let strings = [ text; "+" ^ text; " " ^ text ^ " "; "0x" ^ string_of_int n ^ "fF"; "-0X1"; "-"; ""; "1a" ] in
  let checks : (string * (unit -> string) * (unit -> string)) list =
    [ ("build", (fun () -> show_r ra), fun () -> show_b ha);
      ("to_string", (fun () -> R.to_string ra ^ " " ^ R.to_string rb),
       fun () -> B.to_string ha ^ " " ^ B.to_string hb);
      ("to_int_opt", (fun () -> match R.to_int_opt ra with Some v -> string_of_int v | None -> "none"),
       fun () -> match B.to_int_opt ha with Some v -> string_of_int v | None -> "none");
      ("to_int_exn", (fun () -> string_of_int (R.to_int_exn ra)), fun () -> string_of_int (B.to_int_exn ha));
      ("to_float", (fun () -> Int64.to_string (Int64.bits_of_float (R.to_float ra))),
       fun () -> Int64.to_string (Int64.bits_of_float (B.to_float ha)));
      ("pp", (fun () -> Format.asprintf "%a" R.pp ra), fun () -> Format.asprintf "%a" B.pp ha);
      ("is_zero", (fun () -> string_of_bool (R.is_zero ra)), fun () -> string_of_bool (B.is_zero ha));
      ("sign", (fun () -> string_of_int (R.sign ra)), fun () -> string_of_int (B.sign ha));
      ("compare", (fun () -> sgn (R.compare ra rb)), fun () -> sgn (B.compare ha hb));
      ("equal", (fun () -> string_of_bool (R.equal ra rb)), fun () -> string_of_bool (B.equal ha hb));
      ("lt", (fun () -> string_of_bool (R.lt ra rb)), fun () -> string_of_bool (B.lt ha hb));
      ("le", (fun () -> string_of_bool (R.le ra rb)), fun () -> string_of_bool (B.le ha hb));
      ("gt", (fun () -> string_of_bool (R.gt ra rb)), fun () -> string_of_bool (B.gt ha hb));
      ("ge", (fun () -> string_of_bool (R.ge ra rb)), fun () -> string_of_bool (B.ge ha hb));
      ("min", (fun () -> show_r (R.min ra rb)), fun () -> show_b (B.min ha hb));
      ("max", (fun () -> show_r (R.max ra rb)), fun () -> show_b (B.max ha hb));
      ("neg", (fun () -> show_r (R.neg ra)), fun () -> show_b (B.neg ha));
      ("abs", (fun () -> show_r (R.abs ra)), fun () -> show_b (B.abs ha));
      ("add", (fun () -> show_r (R.add ra rb)), fun () -> show_b (B.add ha hb));
      ("sub", (fun () -> show_r (R.sub ra rb)), fun () -> show_b (B.sub ha hb));
      ("mul", (fun () -> show_r (R.mul ra rb)), fun () -> show_b (B.mul ha hb));
      ("succ", (fun () -> show_r (R.succ ra)), fun () -> show_b (B.succ ha));
      ("pred", (fun () -> show_r (R.pred ra)), fun () -> show_b (B.pred ha));
      ("divmod", (fun () -> pair show_r (R.divmod ra rb)), fun () -> pair show_b (B.divmod ha hb));
      ("div", (fun () -> show_r (R.div ra rb)), fun () -> show_b (B.div ha hb));
      ("rem", (fun () -> show_r (R.rem ra rb)), fun () -> show_b (B.rem ha hb));
      ("fdivmod", (fun () -> pair show_r (R.fdivmod ra rb)), fun () -> pair show_b (B.fdivmod ha hb));
      ("fdiv", (fun () -> show_r (R.fdiv ra rb)), fun () -> show_b (B.fdiv ha hb));
      ("fmod", (fun () -> show_r (R.fmod ra rb)), fun () -> show_b (B.fmod ha hb));
      ("pow2", (fun () -> show_r (R.pow2 n)), fun () -> show_b (B.pow2 n));
      ("pow2 negative", (fun () -> show_r (R.pow2 (-n - 1))), fun () -> show_b (B.pow2 (-n - 1)));
      ("pow", (fun () -> show_r (R.pow ra (n mod 4))), fun () -> show_b (B.pow ha (n mod 4)));
      ("shift_left", (fun () -> show_r (R.shift_left ra n)), fun () -> show_b (B.shift_left ha n));
      ("shift_right", (fun () -> show_r (R.shift_right ra n)), fun () -> show_b (B.shift_right ha n));
      ("test_bit", (fun () -> string_of_bool (R.test_bit ra n)), fun () -> string_of_bool (B.test_bit ha n));
      ("bit_length", (fun () -> string_of_int (R.bit_length ra)), fun () -> string_of_int (B.bit_length ha));
      ("logand", (fun () -> show_r (R.logand ra rb)), fun () -> show_b (B.logand ha hb));
      ("logor", (fun () -> show_r (R.logor ra rb)), fun () -> show_b (B.logor ha hb));
      ("logxor", (fun () -> show_r (R.logxor ra rb)), fun () -> show_b (B.logxor ha hb));
      ("gcd", (fun () -> show_r (R.gcd ra rb)), fun () -> show_b (B.gcd ha hb));
      ("mod_pow2", (fun () -> show_r (R.mod_pow2 ra n)), fun () -> show_b (B.mod_pow2 ha n));
      ("signed_mod_pow2", (fun () -> show_r (R.signed_mod_pow2 ra n)),
       fun () -> show_b (B.signed_mod_pow2 ha n)) ]
    @ List.map
        (fun s -> ("of_string " ^ String.escaped s, (fun () -> show_r (R.of_string s)),
                   fun () -> show_b (B.of_string s)))
        strings
    @ [ ("constants", (fun () -> String.concat " " (List.map show_r [ R.zero; R.one; R.two; R.minus_one ])),
         fun () -> String.concat " " (List.map show_b [ B.zero; B.one; B.two; B.minus_one ])) ]
  in
  List.for_all
    (fun (name, r, h) ->
      let want = outcome r and got = outcome h in
      String.equal want got || QCheck.Test.fail_reportf "%s: reference %s, hybrid %s" name want got)
    checks

(* ------------------------------------------------------------------ *)
(* The compiled interpreter against [Ref_interp], the tree walk it
   replaced, on the random programs above: the same outcome and final
   state at every fuel from 0 up, so they also run out of fuel at the same
   point.  The callee is randomly lambda-bound or state-resident (L1), and
   the caller may call it with the wrong arity or call an unknown
   function. *)

let same_state (s : State.t) (s' : State.t) =
  State.SMap.equal Value.equal s.State.locals s'.State.locals
  && State.SMap.equal Value.equal s.State.globals s'.State.globals
  && Ac_simpl.Heap.equal s.State.heap s'.State.heap

let same_result (r : Interp.run_result) (r' : Interp.run_result) =
  match (r, r') with
  | Interp.Returns (v, s), Interp.Returns (v', s') | Interp.Throws (v, s), Interp.Throws (v', s') ->
    Value.equal v v' && same_state s s'
  | Interp.Fails p, Interp.Fails q | Interp.Gets_stuck p, Interp.Gets_stuck q -> String.equal p q
  | Interp.Diverges, Interp.Diverges -> true
  | (Interp.Returns _ | Interp.Throws _ | Interp.Fails _ | Interp.Gets_stuck _ | Interp.Diverges), _ ->
    false

(* f(x, y) = if x = 0 then base else (z <- callee(args); rest), where the
   callee is f itself (recursion on x - 1), h, or a name nothing defines,
   and the call may follow a loop counting up to x. *)
let gen_interp_prog =
  QCheck.Gen.(
    let* hbody = gen_prog [ "a" ] 2 in
    let* base = gen_prog [ "x"; "y" ] 2 in
    let* rest = gen_prog [ "z"; "x"; "y" ] 2 in
    let* target, args =
      frequency
        [ (3, return ("f", [ E.Binop (E.Sub, E.Var ("x", u32), w32 1); E.Var ("y", u32) ]));
          (3, map (fun a -> ("h", [ a ])) (gen_wexpr [ "x"; "y" ] 1));
          (1, return ("h", [ E.Var ("x", u32); E.Var ("y", u32) ]));
          (1, return ("nope", [ E.Var ("x", u32) ])) ]
    in
    let* h_in_state = bool in
    let* count_up = bool in
    let call = M.Bind (M.Call (target, args), M.Pvar ("z", u32), rest) in
    let i = E.Var ("i", u32) in
    let body =
      M.Cond
        ( E.Binop (E.Eq, E.Var ("x", u32), w32 0),
          base,
          if count_up then
            (* x loop iterations before the call. *)
            M.Bind
              ( M.While
                  ( M.Pvar ("i", u32), E.Binop (E.Lt, i, E.Var ("x", u32)),
                    M.Return (E.Binop (E.Add, i, w32 1)), w32 0 ),
                M.Pwild, call )
          else call )
    in
    return (h_in_state, hbody, body))

let arb_interp_prog =
  QCheck.make
    ~print:(fun ((h_in_state, hbody, body), (x, y)) ->
      Printf.sprintf "h (%s) = %s\nf = %s\nx=%d y=%d"
        (if h_in_state then "locals in state" else "lambda-bound")
        (Ac_monad.Mprint.to_string hbody) (Ac_monad.Mprint.to_string body) x y)
    QCheck.Gen.(pair gen_interp_prog (pair (int_range 0 6) (int_range 0 0xFFFF)))

let compiled_interp_agrees ((h_in_state, hbody, body), (x, y)) =
  let h = mk_ufunc "h" [ ("a", u32) ] hbody in
  let h =
    if h_in_state then { h with M.convention = M.Locals_in_state; locals = [ ("a", u32); ("ret", u32) ] }
    else h
  in
  let prog = { M.lenv; globals = [ ("g", u32) ]; funcs = [ mk_ufunc "f" [ ("x", u32); ("y", u32) ] body; h ];
               heap_types = [] } in
  let state0 = State.set_global State.empty "g" (Value.vword Ty.Unsigned (W.of_int W.W32 7)) in
  let args = [ Value.vword Ty.Unsigned (W.of_int W.W32 x); Value.vword Ty.Unsigned (W.of_int W.W32 y) ] in
  let compiled = Interp.compile prog in
  List.for_all
    (fun fuel ->
      let want = Ref_interp.run_func prog ~fuel state0 "f" args in
      same_result want (Interp.run compiled ~fuel state0 "f" args)
      && same_result want (Interp.run_func prog ~fuel state0 "f" args)
      || QCheck.Test.fail_reportf "disagreement at fuel %d" fuel)
    (List.init 24 Fun.id @ [ 5000 ])

(* Fuel is spent per call, the entry call included: a run that makes c
   calls returns with c units of fuel and more, and diverges with c - 1. *)
let fuel_boundary () =
  let n = E.Var ("n", u32) in
  let parity name other ~zero =
    { M.name; params = [ ("n", u32) ]; ret_ty = u32; convention = M.Lambda_bound;
      heap_model = M.Byte_level; locals = [];
      body = M.Cond (E.Binop (E.Eq, n, w32 0), M.Return (w32 zero),
                     M.Call (other, [ E.Binop (E.Sub, n, w32 1) ])) }
  in
  let prog = { M.lenv; globals = []; heap_types = [];
               funcs = [ parity "is_even" "is_odd" ~zero:1; parity "is_odd" "is_even" ~zero:0 ] } in
  List.iter
    (fun k ->
      let calls = k + 1 in
      let run fuel =
        match Interp.run_func prog ~fuel State.empty "is_even" [ Value.vword Ty.Unsigned (W.of_int W.W32 k) ] with
        | Interp.Returns (v, _) -> Value.to_string v
        | Interp.Diverges -> "diverges"
        | _ -> "other"
      in
      let even = if k mod 2 = 0 then "1" else "0" in
      Alcotest.(check string) (Printf.sprintf "is_even %d, fuel = calls - 1" k) "diverges" (run (calls - 1));
      Alcotest.(check string) (Printf.sprintf "is_even %d, fuel = calls" k) even (run calls);
      Alcotest.(check string) (Printf.sprintf "is_even %d, fuel = calls + 1" k) even (run (calls + 1)))
    [ 0; 1; 7; 1000 ]

let rep_props =
  let open QCheck in
  [
    Test.make ~name:"hybrid bignum = digit-array reference, every operation" ~count:1000
      arb_bignum_case bignum_agrees;
    Test.make ~name:"compiled interpreter = tree-walking reference at every fuel" ~count:400
      arb_interp_prog compiled_interp_agrees;
  ]

(* ------------------------------------------------------------------ *)

let props =
  let open QCheck in
  [
    Test.make ~name:"kernel esimp preserves evaluation" ~count:800 arb_expr_env
      (fun (e, env) ->
        let v1 = try Some (E.eval_pure lenv env e) with E.Eval_stuck _ -> None in
        let v2 =
          try Some (E.eval_pure lenv env (Ac_kernel.Esimp.simp lenv e))
          with E.Eval_stuck _ -> None
        in
        match (v1, v2) with
        | Some a, Some b -> Value.equal a b
        | None, _ -> QCheck.assume_fail ()
        | Some _, None -> false);
    Test.make ~name:"prover simp preserves ground evaluation" ~count:800 arb_term_env
      (fun (t, (x, y)) ->
        let env = [ ("x", T.Vint (B.of_int x)); ("y", T.Vint (B.of_int y)) ] in
        T.veq (T.eval env t) (T.eval env (Ac_prover.Simp.normalize t)));
    Test.make ~name:"LA unsat verdicts are sound (no small model exists)" ~count:200
      (QCheck.make
         QCheck.Gen.(
           list_size (int_range 1 4)
             (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-6) 6))))
      (fun constraints ->
        (* each (a, b, c) is the constraint a*x + b*y + c >= 0 *)
        let x = T.Var ("x", T.Sint) and y = T.Var ("y", T.Sint) in
        let terms =
          List.map
            (fun (a, b, c) ->
              T.le_t T.zero
                (T.add_t
                   (T.add_t (T.mul_t (T.int_of a) x) (T.mul_t (T.int_of b) y))
                   (T.int_of c)))
            constraints
        in
        if not (Ac_prover.La.unsat (List.map Ac_prover.Simp.normalize terms)) then true
        else begin
          (* claimed unsat: verify no model with |x|,|y| <= 25 *)
          let sat = ref false in
          for vx = -25 to 25 do
            for vy = -25 to 25 do
              if
                List.for_all
                  (fun (a, b, c) -> (a * vx) + (b * vy) + c >= 0)
                  constraints
              then sat := true
            done
          done;
          not !sat
        end);
    Test.make ~name:"solver never proves falsifiable ground facts" ~count:300
      (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50))
      (fun (a, b) ->
        let x = T.Var ("x", T.Sint) in
        (* claim: x = a -> x = b; valid iff a = b *)
        let goal = T.imp_t (T.eq_t x (T.int_of a)) (T.eq_t x (T.int_of b)) in
        let proved = Ac_prover.Solver.holds goal in
        proved = (a = b));
    Test.make ~name:"codec round-trips random struct values" ~count:300
      (QCheck.make
         QCheck.Gen.(
           triple (int_range 0 0xFFFF) (int_range 0 0xFFFFFF) (int_range 0 255)))
      (fun (a, b, c) ->
        let lenv =
          Layout.declare_struct Layout.empty "s"
            [ ("x", Ty.Cword (Ty.Unsigned, Ty.W16)); ("y", Ty.Cword (Ty.Unsigned, Ty.W32));
              ("z", Ty.Cword (Ty.Unsigned, Ty.W8)) ]
        in
        let v =
          Value.Vstruct
            ( "s",
              [ ("x", Value.vword Ty.Unsigned (W.of_int W.W16 a));
                ("y", Value.vword Ty.Unsigned (W.of_int W.W32 b));
                ("z", Value.vword Ty.Unsigned (W.of_int W.W8 c)) ] )
        in
        let bytes = Ac_lang.Codec.encode lenv v in
        let read i = List.nth bytes (B.to_int_exn i) in
        let v' = Ac_lang.Codec.decode lenv (Ty.Cstruct "s") read B.zero in
        Value.equal v v');
    Test.make ~name:"struct layout respects alignment" ~count:200
      (QCheck.make
         QCheck.Gen.(
           list_size (int_range 1 5)
             (oneofl
                [ Ty.Cword (Ty.Unsigned, Ty.W8); Ty.Cword (Ty.Unsigned, Ty.W16);
                  Ty.Cword (Ty.Unsigned, Ty.W32); Ty.Cword (Ty.Unsigned, Ty.W64) ])))
      (fun ctys ->
        let fields = List.mapi (fun i c -> (Printf.sprintf "f%d" i, c)) ctys in
        let lenv = Layout.declare_struct Layout.empty "s" fields in
        List.for_all
          (fun (fname, c) ->
            let off = Layout.field_offset lenv "s" fname in
            off mod Layout.align_of lenv c = 0)
          fields
        && Layout.size_of lenv (Ty.Cstruct "s") mod Layout.align_of lenv (Ty.Cstruct "s") = 0);
    Test.make ~name:"discharged guards never fail under the interpreter" ~count:600
      arb_mprog discharge_agrees;
    Test.make
      ~name:"interprocedural discharge is sound and monotone vs intraprocedural"
      ~count:300 arb_callprog interproc_discharge_sound;
  ]

let suite =
  ("interpreter fuel: exact call count, and one less", `Quick, fuel_boundary)
  :: List.map QCheck_alcotest.to_alcotest (props @ map_props @ rep_props)
