module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

(* The certified rewrite engine.

   Applies the kernel's equivalence rules bottom-up to a fixed point,
   composing the steps with transitivity and congruence, so the result is a
   single [Equiv (simplified, original)] theorem.  This engine drives the
   paper's L2 clean-up steps: plain translation artefacts, guard
   de-duplication and discharging, and exception-flow simplification. *)

let abs_of (thm : Thm.t) : M.t =
  match Thm.concl thm with
  | J.Equiv (a, _) -> a
  | _ -> invalid_arg "Rewrite.abs_of"

(* Equiv(b, m) ∘ Equiv(a, b) = Equiv(a, m). *)
let trans ctx (newer : Thm.t) (older : Thm.t) : Thm.t =
  Thm.by ctx Rules.Eq_trans [ newer; older ]

(* The head-rewrite table: candidate rules in priority order; the first one
   whose side conditions hold wins. *)
let head_rules (m : M.t) : Rules.rule list =
  let cond_rules =
    match m with
    | M.Cond (E.Const (Ac_lang.Value.Vbool true), a, b) -> [ Rules.Rw_cond_true (a, b) ]
    | M.Cond (E.Const (Ac_lang.Value.Vbool false), a, b) -> [ Rules.Rw_cond_false (a, b) ]
    | M.Cond (c, a, b) when M.equal a b -> [ Rules.Rw_cond_same (c, a) ]
    | M.Cond (c, ((M.Return _ | M.Gets _) as x), ((M.Return _ | M.Gets _) as y)) ->
      [ Rules.Rw_cond_return (c, x, y) ]
    | _ -> []
  in
  let bind_rules =
    match m with
    | M.Bind (M.Throw e, p, b) -> [ Rules.Rw_dead_after_throw (e, p, b) ]
    | M.Bind (M.Fail, p, b) -> [ Rules.Rw_dead_after_fail (p, b) ]
    | M.Bind ((M.Return e as a), p, b) -> [ Rules.Rw_return_bind (a, p, b) ]
    | M.Bind ((M.Gets e as a), p, b) when not (E.reads_state e) ->
      [ Rules.Rw_gets_bind (a, p, b) ]
    | _ -> []
  in
  let tail_rules =
    match m with
    | M.Bind (a, ((M.Pvar _ | M.Ptuple _) as p), M.Return e)
      when E.equal e (M.pat_expr p) ->
      [ Rules.Rw_bind_return (a, p) ]
    | _ -> []
  in
  let assoc_rules =
    match m with
    | M.Bind (M.Bind (a, p, b), q, c) -> [ Rules.Rw_bind_assoc (a, p, b, q, c) ]
    | _ -> []
  in
  let prune_rules =
    match m with
    | M.Bind (M.While ((M.Ptuple ips as ip), c, body, init), (M.Ptuple _ as qp), k) ->
      List.mapi (fun i _ -> Rules.Rw_prune_loop (i, ip, c, body, init, qp, k)) ips
    | _ -> []
  in
  let other =
    match m with
    | M.Gets e -> [ Rules.Rw_gets_pure e ]
    | M.Guard (k, E.Const (Ac_lang.Value.Vbool true)) -> [ Rules.Rw_guard_true k ]
    | M.Try (a, p, h) -> [ Rules.Rw_try_nothrow (a, p, h) ]
    | _ -> []
  in
  cond_rules @ bind_rules @ tail_rules @ prune_rules @ assoc_rules @ other

(* Inline only cheap expressions to avoid size blow-up (standard
   let-inlining heuristic); the kernel rule itself is indifferent. *)
let cheap e =
  match e with
  | E.Var _ | E.Const _ | E.Global _ | E.Tuple _ -> true
  | _ -> E.size e <= 8

let want_head_rewrite (m : M.t) =
  match m with
  | M.Bind (M.Return e, _, _) when not (cheap e) -> false
  | M.Bind (M.Gets e, M.Pvar (x, _), b) when not (cheap e) ->
    (* still inline single-use bindings: at most one expression of [b]
       mentions [x] *)
    let exception Twice in
    let uses = ref 0 in
    (match
       M.iter_exprs
         (fun expr ->
           if E.mem_var x expr then begin
             incr uses;
             if !uses > 1 then raise Twice
           end)
         b
     with
    | () -> true
    | exception Twice -> false)
  | _ -> true

(* Fuel budget: a cap on head rewrites per [normalize] call.  Running dry
   stops rewriting where it stands — the accumulated theorem is already a
   valid [Equiv], so exhaustion only costs polish, never soundness.  The
   default is far above anything the corpus needs; the driver installs the
   per-run value from [Driver.options.budgets]. *)
let default_fuel = 1_000_000
let fuel = ref default_fuel

(* How many [normalize] calls ran out of fuel (for `acc stats`).  Reset by
   the driver per run. *)
let exhaustions = Atomic.make 0

let rec try_head (ctx : Rules.ctx) (m : M.t) : Thm.t option =
  if not (want_head_rewrite m) then None
  else
    List.fold_left
      (fun acc rule -> match acc with Some _ -> acc | None -> Thm.by_opt ctx rule [])
      None (head_rules m)

(* Subterms a pass of the current [normalize] call returned unchanged,
   keyed by physical identity.  [pass] is a function of the term alone (the
   context is fixed per call, and fuel drains only on a rewrite, so a pass
   that rewrote nothing inside a subterm saw the same fuel throughout), so a
   later pass meeting the same physical subterm again — the kernel maps and
   congruence keep untouched subterms shared — would find nothing to do and
   may skip it.  Local to one [normalize] call: no global state.  Only
   compound nodes are recorded (a leaf costs less to re-examine than to
   look up), under a shallow hash: on the sel4-like unit a full
   [Hashtbl.hash] of every visited node costs more time than the skipped
   work saves. *)
module Seen = Hashtbl.Make (struct
  type t = M.t

  let equal = ( == )
  let hash = Hashtbl.hash_param 4 8
end)

let compound (m : M.t) =
  match m with
  | M.Bind _ | M.Try _ | M.Cond _ | M.While _ -> true
  | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Throw _ | M.Call _
  | M.Exec_concrete _ | M.Unknown _ ->
    false

(* [Equiv (a, m)] for a pass result: [None] means [a] is [m] itself. *)
let refl_or ctx (m : M.t) = function
  | Some thm -> thm
  | None -> Thm.by ctx (Rules.Eq_refl m) []

(* [newer ∘ older], where [older = None] stands for reflexivity. *)
let then_ ctx (newer : Thm.t) = function
  | None -> newer
  | Some older -> trans ctx newer older

(* One bottom-up pass: normalise children via congruence, then rewrite the
   head to a fixed point.  [tank] is the remaining fuel for this
   [normalize] call.  Returns [None] when the term comes back unchanged, so
   an untouched subtree costs no theorem at all and a changed one costs one
   congruence step per node on the changed spine. *)
let rec pass (ctx : Rules.ctx) (tank : int ref) (seen : unit Seen.t) (m : M.t) :
    Thm.t option =
  let compound = compound m in
  if compound && Seen.mem seen m then None
  else begin
    let congr =
      match m with
      | M.Bind (a, p, b) -> congr2 ctx tank seen (Rules.Eq_bind p) a b
      | M.Try (a, p, b) -> congr2 ctx tank seen (Rules.Eq_try p) a b
      | M.Cond (c, a, b) -> congr2 ctx tank seen (Rules.Eq_cond c) a b
      | M.While (p, c, body, init) -> (
        match pass ctx tank seen body with
        | None -> None
        | Some t -> Some (Thm.by ctx (Rules.Eq_while (p, c, init)) [ t ]))
      | _ -> None
    in
    let cur = match congr with Some t -> abs_of t | None -> m in
    match head_fix ctx tank cur congr with
    | None ->
      if compound then Seen.replace seen m ();
      None
    | changed -> changed
  end

(* Children right to left (the fuel-consumption order of the original
   per-node congruence), one congruence step when either changed. *)
and congr2 ctx tank seen rule a b =
  let tb = pass ctx tank seen b in
  let ta = pass ctx tank seen a in
  match (ta, tb) with
  | None, None -> None
  | _ -> Some (Thm.by ctx rule [ refl_or ctx a ta; refl_or ctx b tb ])

and head_fix ctx (tank : int ref) (cur : M.t) (acc : Thm.t option) : Thm.t option =
  if !tank <= 0 then acc
  else begin
    match try_head ctx cur with
    | Some step ->
      decr tank;
      head_fix ctx tank (abs_of step) (Some (then_ ctx step acc))
    | None -> acc
  end

(* Normalise to a global fixed point (with the expression simplifier and
   the guard-discharging pass run between passes), bounded for safety by a
   pass limit and the fuel budget.  Steps that leave the term physically
   unchanged are not chained into the result. *)
let normalize ?(max_passes = 12) (ctx : Rules.ctx) (m : M.t) : Thm.t =
  let tank = ref !fuel in
  let seen = Seen.create 64 in
  (* [acc] proves [Equiv (cur, m)]; [None] while [cur] is [m] itself. *)
  let apply cur acc thm =
    let next = abs_of thm in
    if next == cur then (cur, acc) else (next, Some (then_ ctx thm acc))
  in
  let rec go n cur acc =
    if n >= max_passes || !tank <= 0 then acc
    else begin
      let before = cur in
      let cur, acc = apply cur acc (Thm.by ctx (Rules.Rw_simp cur) []) in
      let cur, acc = apply cur acc (Thm.by ctx (Rules.Rw_discharge cur) []) in
      let cur, acc =
        match pass ctx tank seen cur with
        | Some thm -> (abs_of thm, Some (then_ ctx thm acc))
        | None -> (cur, acc)
      in
      if M.equal cur before then acc else go (n + 1) cur acc
    end
  in
  let out = refl_or ctx m (go 0 m None) in
  if !tank <= 0 then Atomic.incr exhaustions;
  out
