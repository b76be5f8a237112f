module Ty = Ac_lang.Ty
module Value = Ac_lang.Value
module E = Ac_lang.Expr
module Layout = Ac_lang.Layout
module Heap = Ac_simpl.Heap
module State = Ac_simpl.State
module Ir = Ac_simpl.Ir
module B = Ac_bignum
module SMap = Map.Make (String)
open M

(* Executable semantics for the monadic language.

   The monad's mathematical type is state => (set of results × failed); the
   programs the pipeline produces are deterministic except for [Unknown], so
   the interpreter computes one result (plus a Failed outcome standing for
   the failure flag).  Differential testing of the refinement theorems
   (kernel judgments) runs concrete and abstract programs side by side.

   States are the same concrete states as Simpl's; the typed split heaps of
   heap-abstracted programs are *views*: [typed_read]/[is_valid] evaluate
   [heap_lift] on the byte heap, and [Typed_write] writes through it.  This
   realises the paper's abstraction function st as an evaluation-time
   projection, and makes [exec_concrete] executable without guessing a
   concrete witness. *)

type res = Rnorm of Value.t | Rexc of Value.t

(* The expression-evaluation view for monadic programs: both concrete and
   lifted heap operations are available. *)
let view lenv (s : State.t) : E.view =
  {
    E.read_global = State.get_global s;
    read_heap = (fun c addr -> Heap.read_obj lenv s.State.heap c addr);
    typed_read =
      (fun c addr ->
        match Heap.heap_lift lenv s.State.heap c addr with
        | Some v -> v
        | None -> Value.default lenv c);
    is_valid = (fun c addr -> Heap.lift_valid lenv s.State.heap c addr);
    lenv;
  }

(* A state with its view.  The view reads only the globals and the heap, so
   it is built when one of those changes and shared by every expression
   evaluated until then, rather than built per evaluation.  It travels with
   the state it reads instead of sitting in a cache, so runs on different
   domains share nothing. *)
type vstate = { st : State.t; view : E.view }

let vstate lenv st = { st; view = view lenv st }

let with_locals vs locals = { vs with st = { vs.st with State.locals } }

(* Lambda-bound variables shadow state-resident locals of the same name; at
   L1 env is empty and locals provide everything. *)
let eval vs env e = E.eval vs.view (SMap.union (fun _ v _ -> Some v) env vs.st.State.locals) e

(* Left to right, like [List.map]: the first stuck argument is reported. *)
let rec eval_args vs env = function
  | [] -> []
  | e :: es ->
    let v = eval vs env e in
    v :: eval_args vs env es

let rec bind_pat (p : pat) (v : Value.t) (env : Value.t SMap.t) : Value.t SMap.t =
  match (p, v) with
  | Pwild, _ -> env
  | Pvar (x, _), v -> SMap.add x v env
  | Ptuple ps, Value.Vtuple vs when List.length ps = List.length vs ->
    List.fold_left2 (fun env p v -> bind_pat p v env) env ps vs
  | Ptuple [ p ], v -> bind_pat p v env
  | Ptuple _, _ -> E.stuck "tuple pattern mismatch against %s" (Value.to_string v)

let apply_smod lenv (vs : vstate) (env : Value.t SMap.t) (sm : smod) : vstate =
  let s = vs.st in
  let with_heap h = vstate lenv (State.with_heap s h) in
  match sm with
  | Heap_write (c, p, v) -> (
    match eval vs env p with
    | Value.Vptr (addr, _) -> with_heap (Heap.write_obj lenv s.State.heap c addr (eval vs env v))
    | _ -> E.stuck "heap write through non-pointer")
  | Typed_write (c, p, v) -> (
    match eval vs env p with
    | Value.Vptr (addr, _) ->
      (* The abstract functional update s[p := v]; mirrored onto the byte
         heap, which is what st projects from. *)
      with_heap (Heap.write_obj lenv s.State.heap c addr (eval vs env v))
    | _ -> E.stuck "typed write through non-pointer")
  | Global_set (x, e) -> vstate lenv (State.set_global s x (eval vs env e))
  | Local_set (x, e) -> { vs with st = State.set_local s x (eval vs env e) }
  | Retype (c, p) -> (
    match eval vs env p with
    | Value.Vptr (addr, _) -> with_heap (Heap.retype lenv s.State.heap c addr)
    | _ -> E.stuck "retype through non-pointer")

let rec apply_smods lenv env vs = function
  | [] -> vs
  | sm :: sms -> apply_smods lenv env (apply_smod lenv vs env sm) sms

let rec default_of_ty lenv (t : Ty.t) : Value.t =
  match t with
  | Ty.Tunit -> Value.Vunit
  | Ty.Tbool -> Value.Vbool false
  | Ty.Tword (s, w) -> Value.vword s (Ac_word.zero w)
  | Ty.Tint -> Value.Vint B.zero
  | Ty.Tnat -> Value.Vnat B.zero
  | Ty.Tptr c -> Value.null c
  | Ty.Tstruct n -> Value.default lenv (Ty.Cstruct n)
  | Ty.Ttuple ts -> Value.Vtuple (List.map (default_of_ty lenv) ts)

(* The final state keeps its view for the continuation. *)
type outcome =
  | Ok of res * vstate
  | Failed of string (* the monad's failure flag: guard violation or fail *)
  | Stuck of string
  | Out_of_fuel

(* ------------------------------------------------------------------ *)
(* Compilation.

   [compile] turns each function of a program into closures once, so a
   run dispatches on no term, looks up no callee by name and re-derives no
   calling convention.  The semantics is the tree walk's, node for node:
   every node refuses to start without fuel, a call or a loop iteration
   spends one unit, and sub-terms are evaluated in the same order with the
   same stuck messages, so the same failure is reported at the same point.
   Expressions still go through the one evaluator, [E.eval]. *)

type code = int -> Value.t SMap.t -> vstate -> outcome

(* A function's slot exists before any body is compiled, so a call site
   resolves its callee at compile time even when the callee (or the caller
   itself, under recursion) is compiled later. *)
type slot = {
  func : func;
  params : string list;
  nparams : int;
  mutable body : code;
}

type compiled = { lenv : Layout.env; slots : slot SMap.t }

let unit_res = Rnorm Value.Vunit

(* Pattern binding, specialised on the pattern's shape. *)
let compile_pat (p : pat) : Value.t -> Value.t SMap.t -> Value.t SMap.t =
  match p with
  | Pwild -> fun _ env -> env
  | Pvar (x, _) -> fun v env -> SMap.add x v env
  | Ptuple _ -> bind_pat p

let bind_params params args =
  List.fold_left2 (fun m p v -> SMap.add p v m) SMap.empty params args

(* A lambda-bound callee's environment, built while its arguments are
   evaluated left to right; equal to [bind_params] of [eval_args]. *)
let rec bind_args vs env params args acc =
  match (params, args) with
  | p :: ps, e :: es -> bind_args vs env ps es (SMap.add p (eval vs env e) acc)
  | _ -> acc

let rec loop body bind cond env fuel i vs =
  if fuel <= 0 then Out_of_fuel
  else begin
    let env' = bind i env in
    match eval vs env' cond with
    | Value.Vbool false -> Ok (Rnorm i, vs)
    | Value.Vbool true -> (
      match body (fuel - 1) env' vs with
      | Ok (Rnorm i', vs') -> loop body bind cond env (fuel - 1) i' vs'
      | other -> other)
    | _ -> Stuck "non-boolean loop condition"
    | exception E.Eval_stuck msg -> Stuck msg
  end

(* Run a function body under its calling convention; the caller's locals are
   saved and restored around state-resident callees. *)
let enter lenv (sl : slot) fuel (vs : vstate) (args : Value.t list) : outcome =
  if List.length args <> sl.nparams then Stuck (Printf.sprintf "%s: arity mismatch" sl.func.name)
  else begin
    match sl.func.convention with
    | Lambda_bound ->
      (* A tail call, so tail recursion in the program runs in constant stack. *)
      sl.body fuel (bind_params sl.params args) vs
    | Locals_in_state -> (
      (* Parameters bound, declared locals default-initialised (matching the
         Simpl semantics and the lifting phase's default substitution). *)
      let callee_locals =
        List.fold_left
          (fun m (x, t) -> if SMap.mem x m then m else SMap.add x (default_of_ty lenv t) m)
          (bind_params sl.params args) sl.func.locals
      in
      match sl.body fuel SMap.empty (with_locals vs callee_locals) with
      | Ok (_, vs') ->
        (* Result: the ret ghost local if the callee has one. *)
        let rv =
          match SMap.find_opt Ir.ret_var vs'.st.State.locals with
          | Some v -> v
          | None -> Value.Vunit
        in
        Ok (Rnorm rv, with_locals vs' vs.st.State.locals)
      | other -> other)
  end

let rec compile_m lenv (slots : slot SMap.t) (m : M.t) : code =
  let compile = compile_m lenv slots in
  match m with
  | Return e | Gets e -> (
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else match eval vs env e with v -> Ok (Rnorm v, vs) | exception E.Eval_stuck msg -> Stuck msg)
  | Modify sms -> (
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else
        match apply_smods lenv env vs sms with
        | vs' -> Ok (unit_res, vs')
        | exception E.Eval_stuck msg -> Stuck msg)
  | Guard (k, e) -> (
    let kind = Ir.guard_kind_name k in
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else
        match eval vs env e with
        | Value.Vbool true -> Ok (unit_res, vs)
        | Value.Vbool false -> Failed kind
        | _ -> Stuck "non-boolean guard"
        | exception E.Eval_stuck msg -> Stuck msg)
  | Fail -> fun fuel _ _ -> if fuel <= 0 then Out_of_fuel else Failed "fail"
  | Throw e -> (
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else match eval vs env e with v -> Ok (Rexc v, vs) | exception E.Eval_stuck msg -> Stuck msg)
  | Unknown t ->
    fun fuel _ vs -> if fuel <= 0 then Out_of_fuel else Ok (Rnorm (default_of_ty lenv t), vs)
  | Bind (a, Pwild, b) -> (
    let a = compile a and b = compile b in
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else match a fuel env vs with Ok (Rnorm _, vs') -> b fuel env vs' | other -> other)
  | Bind (a, Pvar (x, _), b) -> (
    let a = compile a and b = compile b in
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else match a fuel env vs with Ok (Rnorm v, vs') -> b fuel (SMap.add x v env) vs' | other -> other)
  | Bind (a, p, b) -> (
    let a = compile a and b = compile b and bind = compile_pat p in
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else
        match a fuel env vs with
        | Ok (Rnorm v, vs') -> (
          match bind v env with
          | env' -> b fuel env' vs'
          | exception E.Eval_stuck msg -> Stuck msg)
        | other -> other)
  | Try (a, p, handler) -> (
    let a = compile a and handler = compile handler and bind = compile_pat p in
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else
        match a fuel env vs with
        | Ok (Rexc v, vs') -> (
          match bind v env with
          | env' -> handler fuel env' vs'
          | exception E.Eval_stuck msg -> Stuck msg)
        | other -> other)
  | Cond (c, a, b) -> (
    let a = compile a and b = compile b in
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else
        match eval vs env c with
        | Value.Vbool true -> a fuel env vs
        | Value.Vbool false -> b fuel env vs
        | _ -> Stuck "non-boolean condition"
        | exception E.Eval_stuck msg -> Stuck msg)
  | While (p, cond, body, init) -> (
    let body = compile body and bind = compile_pat p in
    fun fuel env vs ->
      if fuel <= 0 then Out_of_fuel
      else
        match eval vs env init with
        | exception E.Eval_stuck msg -> Stuck msg
        | i -> loop body bind cond env fuel i vs)
  | Call (fname, args) | Exec_concrete (fname, args) -> (
    match SMap.find_opt fname slots with
    | None ->
      let msg = "call to unknown function " ^ fname in
      fun fuel _ _ -> if fuel <= 0 then Out_of_fuel else Stuck msg
    | Some ({ func = { convention = Lambda_bound; _ }; _ } as sl)
      when List.length args = sl.nparams -> (
      fun fuel env vs ->
        if fuel <= 0 then Out_of_fuel
        else
          match bind_args vs env sl.params args SMap.empty with
          | exception E.Eval_stuck msg -> Stuck msg
          | env' -> sl.body (fuel - 1) env' vs)
    | Some sl -> (
      fun fuel env vs ->
        if fuel <= 0 then Out_of_fuel
        else
          match eval_args vs env args with
          | exception E.Eval_stuck msg -> Stuck msg
          | arg_vals -> enter lenv sl (fuel - 1) vs arg_vals))

(* Calls resolve to the first function of a name, like [M.find_func]. *)
let compile (prog : program) : compiled =
  let slots =
    List.fold_left
      (fun slots f ->
        if SMap.mem f.name slots then slots
        else begin
          let params = List.map fst f.params in
          let body _ _ _ = invalid_arg "Interp: function run before compilation" in
          SMap.add f.name { func = f; params; nparams = List.length params; body } slots
        end)
      SMap.empty prog.funcs
  in
  SMap.iter (fun _ sl -> sl.body <- compile_m prog.lenv slots sl.func.body) slots;
  { lenv = prog.lenv; slots }

(* Convenience runner mirroring Simpl's [run_func]. *)
type run_result =
  | Returns of Value.t * State.t
  | Throws of Value.t * State.t
  | Fails of string
  | Gets_stuck of string
  | Diverges

let run (c : compiled) ~fuel (s : State.t) fname (args : Value.t list) : run_result =
  match SMap.find_opt fname c.slots with
  | None -> Gets_stuck ("unknown function " ^ fname)
  | Some sl -> (
    match enter c.lenv sl fuel (vstate c.lenv s) args with
    | Ok (Rnorm v, vs) -> Returns (v, vs.st)
    | Ok (Rexc v, vs) -> Throws (v, vs.st)
    | Failed m -> Fails m
    | Stuck m -> Gets_stuck m
    | Out_of_fuel -> Diverges)

(* The only way to execute a program: compile, then run. *)
let run_func (prog : program) ~fuel s fname args = run (compile prog) ~fuel s fname args
