module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout

(* The kernel's expression simplifier: a small set of local, obviously
   value-preserving rewrites, used by the L2 clean-up rule.  Everything here
   is semantics-preserving for *all* environments and states:

   - projections of literal tuples
   - constant folding of closed, state-free subterms
   - boolean algebra on literal true/false
   - if-then-else with a literal condition or identical branches

   In the Isabelle original these are simp-set lemmas; here they form part
   of the trusted rule base. *)

let rec is_closed_pure (e : E.t) =
  match e with
  | E.Var _ | E.Global _ | E.HeapRead _ | E.TypedRead _ | E.IsValid _ -> false
  | E.Binop ((E.Div | E.Rem), _, _) ->
    (* folding division would need the totalised semantics; fold only when
       the divisor is a non-zero literal *)
    E.for_all_children is_closed_pure e
  | _ -> E.for_all_children is_closed_pure e

let fold_constant lenv (e : E.t) : E.t =
  match e with
  | E.Const _ -> e
  | _ ->
    if is_closed_pure e then begin
      match E.eval_pure lenv E.SMap.empty e with
      (* Tuples and structs stay structural: the abstraction rules match on
         their shape. *)
      | Value.Vtuple _ | Value.Vstruct _ -> e
      | v -> E.Const v
      | exception E.Eval_stuck _ -> e
    end
    else e

(* A smart constructor's result, or [e] itself when the constructor merely
   rebuilt [e]'s own node from [e]'s own children: [simp] returns its input
   physically whenever the result is structurally equal to it. *)
let unless_rebuilt (e : E.t) (r : E.t) : E.t =
  match (e, r) with
  | E.Binop (o, a, b), E.Binop (o', a', b') when o = o' && a == a' && b == b' -> e
  | E.Unop (o, x), E.Unop (o', x') when o = o' && x == x' -> e
  | _ -> r

let simp lenv (e : E.t) : E.t =
  let rec go (e : E.t) : E.t =
    let e = E.map_children go e in
    let e =
      match e with
      | E.Proj (i, E.Tuple es) when i < List.length es -> List.nth es i
      | E.Binop (E.And, a, b) -> unless_rebuilt e (E.and_e a b)
      | E.Binop (E.Or, a, b) -> unless_rebuilt e (E.or_e a b)
      | E.Binop (E.Imp, a, b) -> unless_rebuilt e (E.imp_e a b)
      | E.Unop (E.Not, x) -> unless_rebuilt e (E.not_e x)
      | E.Ite (E.Const (Value.Vbool true), a, _) -> a
      | E.Ite (E.Const (Value.Vbool false), _, b) -> b
      | E.Ite (_, a, b) when E.equal a b -> a
      | E.Binop (E.Eq, a, b) when E.equal a b && not (E.reads_state a) -> E.true_e
      | e -> e
    in
    fold_constant lenv e
  in
  go e
