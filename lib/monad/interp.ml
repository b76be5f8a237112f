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

(* Per-run context: the program and its callees, each looked up in the
   function list on its first call of the run and kept for the rest. *)
type run = { prog : program; mutable callees : func option SMap.t }

let callee rt fname =
  match SMap.find_opt fname rt.callees with
  | Some f -> f
  | None ->
    let f = find_func rt.prog fname in
    rt.callees <- SMap.add fname f rt.callees;
    f

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

(* The final state keeps its view for the continuation. *)
type outcome =
  | Ok of res * vstate
  | Failed of string (* the monad's failure flag: guard violation or fail *)
  | Stuck of string
  | Out_of_fuel

let rec exec (rt : run) (fuel : int) (env : Value.t SMap.t) (vs : vstate) (m : M.t) : outcome =
  if fuel <= 0 then Out_of_fuel
  else begin
    let lenv = rt.prog.lenv in
    match m with
    | Return e | Gets e -> ( try Ok (Rnorm (eval vs env e), vs) with E.Eval_stuck msg -> Stuck msg)
    | Modify sms -> (
      try Ok (Rnorm Value.Vunit, List.fold_left (fun vs sm -> apply_smod lenv vs env sm) vs sms)
      with E.Eval_stuck msg -> Stuck msg)
    | Guard (k, e) -> (
      match eval vs env e with
      | Value.Vbool true -> Ok (Rnorm Value.Vunit, vs)
      | Value.Vbool false -> Failed (Ir.guard_kind_name k)
      | _ -> Stuck "non-boolean guard"
      | exception E.Eval_stuck msg -> Stuck msg)
    | Fail -> Failed "fail"
    | Throw e -> ( try Ok (Rexc (eval vs env e), vs) with E.Eval_stuck msg -> Stuck msg)
    | Unknown t -> Ok (Rnorm (default_of_ty rt.prog t), vs)
    | Bind (a, p, b) -> (
      match exec rt fuel env vs a with
      | Ok (Rnorm v, vs') -> (
        match bind_pat p v env with
        | env' -> exec rt fuel env' vs' b
        | exception E.Eval_stuck msg -> Stuck msg)
      | other -> other)
    | Try (a, p, handler) -> (
      match exec rt fuel env vs a with
      | Ok (Rexc v, vs') -> (
        match bind_pat p v env with
        | env' -> exec rt fuel env' vs' handler
        | exception E.Eval_stuck msg -> Stuck msg)
      | other -> other)
    | Cond (c, a, b) -> (
      match eval vs env c with
      | Value.Vbool true -> exec rt fuel env vs a
      | Value.Vbool false -> exec rt fuel env vs b
      | _ -> Stuck "non-boolean condition"
      | exception E.Eval_stuck msg -> Stuck msg)
    | While (p, cond, body, init) -> (
      match eval vs env init with
      | exception E.Eval_stuck msg -> Stuck msg
      | i ->
        let rec loop fuel i vs =
          if fuel <= 0 then Out_of_fuel
          else begin
            let env' = bind_pat p i env in
            match eval vs env' cond with
            | Value.Vbool false -> Ok (Rnorm i, vs)
            | Value.Vbool true -> (
              match exec rt (fuel - 1) env' vs body with
              | Ok (Rnorm i', vs') -> loop (fuel - 1) i' vs'
              | other -> other)
            | _ -> Stuck "non-boolean loop condition"
            | exception E.Eval_stuck msg -> Stuck msg
          end
        in
        loop fuel i vs)
    | Call (fname, args) | Exec_concrete (fname, args) -> (
      match callee rt fname with
      | None -> Stuck ("call to unknown function " ^ fname)
      | Some f -> (
        match eval_args vs env args with
        | exception E.Eval_stuck msg -> Stuck msg
        | arg_vals -> exec_func rt (fuel - 1) vs f arg_vals))
  end

and default_of_ty prog (t : Ty.t) : Value.t =
  match t with
  | Ty.Tunit -> Value.Vunit
  | Ty.Tbool -> Value.Vbool false
  | Ty.Tword (s, w) -> Value.vword s (Ac_word.zero w)
  | Ty.Tint -> Value.Vint B.zero
  | Ty.Tnat -> Value.Vnat B.zero
  | Ty.Tptr c -> Value.null c
  | Ty.Tstruct n -> Value.default prog.lenv (Ty.Cstruct n)
  | Ty.Ttuple ts -> Value.Vtuple (List.map (default_of_ty prog) ts)

(* Run a function body under its calling convention; the caller's locals are
   saved and restored around state-resident callees. *)
and exec_func rt fuel (vs : vstate) (f : func) (args : Value.t list) : outcome =
  if List.length args <> List.length f.params then
    Stuck (Printf.sprintf "%s: arity mismatch" f.name)
  else begin
    match f.convention with
    | Lambda_bound ->
      let env =
        List.fold_left2 (fun m (p, _) v -> SMap.add p v m) SMap.empty f.params args
      in
      (* A tail call, so tail recursion in the program runs in constant stack. *)
      exec rt fuel env vs f.body
    | Locals_in_state -> (
      (* Parameters bound, declared locals default-initialised (matching the
         Simpl semantics and the lifting phase's default substitution). *)
      let with_params =
        List.fold_left2 (fun m (p, _) v -> SMap.add p v m) SMap.empty f.params args
      in
      let callee_locals =
        List.fold_left
          (fun m (x, t) -> if SMap.mem x m then m else SMap.add x (default_of_ty rt.prog t) m)
          with_params f.locals
      in
      match exec rt fuel SMap.empty (with_locals vs callee_locals) f.body with
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

(* Convenience runner mirroring Simpl's [run_func]. *)
type run_result =
  | Returns of Value.t * State.t
  | Throws of Value.t * State.t
  | Fails of string
  | Gets_stuck of string
  | Diverges

let run_func (prog : program) ~fuel (s : State.t) fname (args : Value.t list) : run_result =
  let rt = { prog; callees = SMap.empty } in
  match callee rt fname with
  | None -> Gets_stuck ("unknown function " ^ fname)
  | Some f -> (
    match exec_func rt fuel (vstate prog.lenv s) f args with
    | Ok (Rnorm v, vs) -> Returns (v, vs.st)
    | Ok (Rexc v, vs) -> Throws (v, vs.st)
    | Failed m -> Fails m
    | Stuck m -> Gets_stuck m
    | Out_of_fuel -> Diverges)
