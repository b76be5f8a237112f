module A = Ac_kernel.Absdom
module M = Ac_monad.M
module Layout = Ac_lang.Layout
module D = Domains

(* Interprocedural summary inference (the tentpole's untrusted half).

   Bottom-up over the call graph's SCC condensation ([Callgraph.sccs]
   emits callees first): each SCC gets an optimistic ascending fixpoint —
   claims start at ⊥ ("no outcome yet"), each round re-walks every member
   under the current claim table, joins for a few rounds then widens, and
   stops only after a full round in which no claim moved, so the
   committed table is self-consistent: walking any member under the
   final table yields outcomes within its claims.  That is exactly the
   property [Absdom.check_sums] verifies (by one walk per summary), so
   whatever this module emits either passes the kernel or is discarded
   wholesale — a bug here costs precision, never soundness.

   Around the bottom-up pass sits a bounded context-refinement loop:
   call sites report the abstract domains of their actuals (the
   [on_call] hook), and a callee observed under strictly-more-precise
   arguments gains an extra summary context (most specific first, capped
   at [!contexts] beyond the base ⊤-arguments context).  After any
   addition the whole table is recomputed bottom-up, so caller claims
   are always derived from the final callee claims.

   Budgets: SCC rounds are capped by the shared [!Domains.budget]
   (non-convergence drops that SCC's summaries — callers havoc across
   those calls, the intraprocedural result); refinement rounds are
   capped by [!rounds].  Either cap bumps [exhaustions], which the
   driver folds into `budget_hits`.  Inference never fails. *)

(* Outer context-refinement rounds; each round is a full bottom-up
   recompute, so this bounds whole-program passes. *)
let rounds = ref 4

(* Refined contexts per callee, beyond the base ⊤-arguments context. *)
let contexts = ref 3

(* Summary-budget exhaustions (SCC non-convergence, refinement cut
   short).  Reset by the driver per run, reported as budget hits. *)
let exhaustions = Atomic.make 0

(* Per-function inference statistics, for `acc stats --profile`. *)
type fstat = { fs_contexts : int; fs_size : int }

let base_args (f : M.func) : A.vdom list =
  List.map (fun (_, t) -> A.type_top t) f.M.params

(* Same binding the kernel's [check_sums] performs, so claims verify. *)
let bind_args (f : M.func) (args : A.vdom list) : A.aenv =
  List.fold_left2 (fun e (x, _) d -> A.set_var e x d) A.env_top f.M.params args

(* One walk of [f] from [args] under [table]: the claim it supports.
   Loop invariants are harvested from the solver so the kernel can
   replay them with a single inductiveness check each. *)
let claim_of lenv (table : A.sums) ~on_call (f : M.func) (args : A.vdom list) :
    A.summary =
  let tbl = Hashtbl.create 8 in
  let sv = D.fixpoint_solver ~sums:table ~on_call tbl in
  let _, out = A.walk lenv sv 0 (bind_args f args) f.M.body in
  let invs =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    A.s_args = args;
    s_ret = (match out.A.onorm with Some (_, rv) -> rv | None -> A.Dtop);
    s_noret = out.A.onorm = None;
    s_throws = out.A.oexn <> None;
    s_invs = invs;
  }

exception Scc_budget

let compute (lenv : Layout.env) (fs : M.func list) :
    A.sums * (string * fstat) list =
  let cg = Callgraph.of_funcs fs in
  let fmap = List.map (fun f -> (f.M.name, f)) fs in
  let sccs = Callgraph.sccs cg in
  (* Contexts per function, most specific first; grows monotonically
     across refinement rounds. *)
  let ctxs : (string, A.vdom list list) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace ctxs f.M.name [ base_args f ]) fs;
  (* Call-site argument domains observed during the latest recompute, in
     walk order (compute is sequential, so this is deterministic). *)
  let calls : (string * A.vdom list) list ref = ref [] in
  let on_call g argds = calls := (g, argds) :: !calls in
  let recompute () : A.sums =
    calls := [];
    let committed = ref [] in
    List.iter
      (fun scc ->
        let members = List.filter_map (fun g -> List.assoc_opt g fmap) scc in
        if members <> [] then begin
          let claims =
            List.map
              (fun f ->
                ( f,
                  List.map
                    (fun c -> ref (D.sum_bottom c))
                    (Hashtbl.find ctxs f.M.name) ))
              members
          in
          let table_now () =
            List.map (fun (f, rs) -> (f.M.name, List.map (fun r -> !r) rs)) claims
            @ !committed
          in
          let step round =
            let changed = ref false in
            List.iter
              (fun (f, rs) ->
                List.iter
                  (fun r ->
                    let c =
                      claim_of lenv (table_now ()) ~on_call f !r.A.s_args
                    in
                    if D.sum_leq c !r then
                      (* Outcome stable: refresh the invariants so the
                         final round leaves them consistent with the
                         final table (invariants of other entries never
                         influence a walk, only outcomes do). *)
                      r := { !r with A.s_invs = c.A.s_invs }
                    else begin
                      changed := true;
                      r :=
                        (if round >= D.widen_after then D.sum_widen !r c
                         else D.sum_join !r c)
                    end)
                  rs)
              claims;
            !changed
          in
          match
            if Callgraph.scc_cyclic cg scc then begin
              let round = ref 0 in
              while step !round do
                incr round;
                if !round > !D.budget.max_rounds then raise Scc_budget
              done
            end
            else
              (* Acyclic: the claim cannot feed back into its own walk,
                 so one pass is already the fixpoint. *)
              List.iter
                (fun (f, rs) ->
                  List.iter
                    (fun r -> r := claim_of lenv (table_now ()) ~on_call f !r.A.s_args)
                    rs)
                claims
          with
          | () ->
            committed :=
              List.map (fun (f, rs) -> (f.M.name, List.map (fun r -> !r) rs)) claims
              @ !committed
          | exception Scc_budget ->
            (* Non-convergence: drop this SCC's summaries — callers
               havoc across these calls (the intraprocedural result). *)
            Atomic.incr exhaustions
        end)
      sccs;
    !committed
  in
  (* Add summary contexts for observed call-site argument domains that
     are strictly more precise than every context the callee already
     has.  Returns whether anything was added. *)
  let refine () : bool =
    let added = ref false in
    let seen = ref [] in
    List.iter
      (fun (g, argds) ->
        match List.assoc_opt g fmap with
        | None -> ()
        | Some f when List.length argds = List.length f.M.params ->
          if not (List.mem (g, argds) !seen) then begin
            seen := (g, argds) :: !seen;
            let existing = Hashtbl.find ctxs g in
            if
              List.length existing < 1 + !contexts
              && (not (List.mem argds existing))
              && List.for_all2 A.vdom_leq argds (base_args f)
            then begin
              Hashtbl.replace ctxs g (argds :: existing);
              added := true
            end
          end
        | Some _ -> ())
      (List.rev !calls);
    !added
  in
  let rec outer round =
    (* One span per refinement round — each is a whole-program bottom-up
       recompute, the unit of fixpoint work worth seeing on a trace. *)
    let table =
      if Ac_obs.Obs.enabled () then
        Ac_obs.Obs.span ~cat:"analysis"
          ~args:[ ("round", string_of_int round) ]
          "summary.round" recompute
      else recompute ()
    in
    if round >= !rounds then begin
      (* Out of refinement rounds; if more contexts were wanted, record
         the degradation (the table itself stays valid and checkable). *)
      if refine () then Atomic.incr exhaustions;
      table
    end
    else if refine () then outer (round + 1)
    else table
  in
  let table = outer 1 in
  let stats =
    List.map
      (fun (g, ss) ->
        ( g,
          {
            fs_contexts = List.length ss;
            fs_size = List.fold_left (fun a s -> a + D.summary_size s) 0 ss;
          } ))
      table
  in
  (table, stats)
