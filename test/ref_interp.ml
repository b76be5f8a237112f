(* Test-only reference: the tree-walking monadic interpreter as it was
   before [Interp] compiled programs into closures.  It dispatches on the
   term at every step and looks callees up by name once per run.  It shares
   the compiled interpreter's helpers for expression evaluation, pattern
   binding and state updates; what it pins is the compilation: [Test_props]
   checks that both agree on outcome, final state and the point where fuel
   runs out. *)

module Ty = Ac_lang.Ty
module Value = Ac_lang.Value
module B = Ac_bignum
module Ir = Ac_simpl.Ir
module State = Ac_simpl.State
module M = Ac_monad.M
module Interp = Ac_monad.Interp
module SMap = Map.Make (String)
open M
open Interp

type run = { prog : program; mutable callees : func option SMap.t }

let callee rt fname =
  match SMap.find_opt fname rt.callees with
  | Some f -> f
  | None ->
    let f = find_func rt.prog fname in
    rt.callees <- SMap.add fname f rt.callees;
    f

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
    | Unknown t -> Ok (Rnorm (default_of_ty lenv t), vs)
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

and exec_func rt fuel (vs : vstate) (f : func) (args : Value.t list) : outcome =
  if List.length args <> List.length f.params then
    Stuck (Printf.sprintf "%s: arity mismatch" f.name)
  else begin
    match f.convention with
    | Lambda_bound ->
      let env =
        List.fold_left2 (fun m (p, _) v -> SMap.add p v m) SMap.empty f.params args
      in
      exec rt fuel env vs f.body
    | Locals_in_state -> (
      let with_params =
        List.fold_left2 (fun m (p, _) v -> SMap.add p v m) SMap.empty f.params args
      in
      let callee_locals =
        List.fold_left
          (fun m (x, t) ->
            if SMap.mem x m then m else SMap.add x (default_of_ty rt.prog.lenv t) m)
          with_params f.locals
      in
      match exec rt fuel SMap.empty (with_locals vs callee_locals) f.body with
      | Ok (_, vs') ->
        let rv =
          match SMap.find_opt Ir.ret_var vs'.st.State.locals with
          | Some v -> v
          | None -> Value.Vunit
        in
        Ok (Rnorm rv, with_locals vs' vs.st.State.locals)
      | other -> other)
  end

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
