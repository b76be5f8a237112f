(* The L2 schedule and the sharing-preserving rewrite engine: translated
   programs are pinned byte for byte, every function is converted once on
   acyclic units (a recursive component iterates, bounded), and a
   non-recoverable failure is still reported for the first failing
   function in source order. *)

module Driver = Autocorres.Driver
module Profile = Autocorres.Profile
module Diag = Autocorres.Diag
module Thm = Ac_kernel.Thm
module Mprint = Ac_monad.Mprint
module Callgraph = Ac_analysis.Callgraph

let acc_exe = Filename.concat (Sys.getcwd ()) "../bin/acc.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* MD5 of `acc translate --no-store FILE`'s stdout. *)
let translate_digest file =
  let out = Filename.temp_file "acc_l2" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s translate --no-store %s > %s 2> /dev/null"
          (Filename.quote acc_exe) (Filename.quote file) (Filename.quote out)
      in
      Alcotest.(check int) (cmd ^ " exits 0") 0 (Sys.command cmd);
      Digest.to_hex (Digest.string (read_file out)))

(* Digests of the translations of the four Table 5 paper-row units (the
   Ac_codegen profiles at their own seeds) and of every corpus file.  Any
   change to what the pipeline prints changes these: a rewrite-engine or
   schedule change that is meant to be invisible must leave them alone. *)
let unit_digests =
  [
    ("sel4-like", "777fc02054c366ea554c574728e1f4e8");
    ("capdl-sysinit-like", "4b89df767c732559ced4ceeb0503306c");
    ("piccolo-like", "0ead379a8213490b6944ee1e057208ef");
    ("echronos-like", "61466c5d61e48bb6578bb9a7fb4fe719");
  ]

let corpus_digests =
  [
    ("binary_search.c", "f7351355dc7cc56fc19249d82f28c39a");
    ("call_chain.c", "df04d4041ec59589d5831a62b4560db5");
    ("clamp_shift.c", "3ce865babccbc470a72520069555b3b9");
    ("counter.c", "569317b8c3897e9642f160fa471bd7e1");
    ("div_guarded.c", "c692486757c157e94166c206a3a96365");
    ("gcd.c", "099ca950c15b15caff55eeefa4b91aef");
    ("max.c", "42762c6c962b449f9f126660ae3e3867");
    ("memset.c", "f8dd65b43aedc711f7a863b36d10aafa");
    ("memset_mixed.c", "88230f1c75419f9aa62e6ea015e09f58");
    ("mid.c", "c1506e222c8d4edabbcf8fc2e218dd58");
    ("mutual_parity.c", "547fa98acf0f828c4e47ed41964748e1");
    ("odd_divisor.c", "f875cd8ed240c80feae0c2cc97702f8a");
    ("rec_bound.c", "a97616b99e6c9cb3b8f6093bffe71aa0");
    ("reverse.c", "29190cc98015ebd305a27501293d5c33");
    ("schorr_waite.c", "dba49fea5b6ace2008e96464feed645b");
    ("shift_guarded.c", "5b9739cd041f7dd99d943d05897426de");
    ("suzuki.c", "4f446d4ca46b5bea87ef4741e229be39");
    ("swap.c", "b3bf5adc930fb195e80f7674d31662c5");
  ]

let profile_source name =
  match List.find_opt (fun p -> p.Ac_codegen.p_name = name) Ac_codegen.profiles with
  | Some p -> Ac_codegen.generate p
  | None -> Alcotest.failf "no Ac_codegen profile %s" name

let test_units_pinned () =
  let dir = Filename.temp_dir "acc_l2_units" "" in
  List.iter
    (fun (name, want) ->
      let file = Filename.concat dir (name ^ ".c") in
      Out_channel.with_open_bin file (fun oc -> output_string oc (profile_source name));
      Alcotest.(check string) (name ^ ": translate output digest") want
        (translate_digest file);
      Sys.remove file)
    unit_digests;
  Sys.rmdir dir

let test_corpus_pinned () =
  let on_disk =
    List.sort String.compare
      (List.filter
         (fun f -> Filename.check_suffix f ".c")
         (Array.to_list (Sys.readdir "../corpus")))
  in
  Alcotest.(check (list string)) "every corpus file is pinned" (List.map fst corpus_digests)
    on_disk;
  List.iter
    (fun (file, want) ->
      Alcotest.(check string) (file ^ ": translate output digest") want
        (translate_digest (Filename.concat "../corpus" file)))
    corpus_digests

let l2_calls () =
  match List.find_opt (fun e -> String.equal e.Profile.phase "l2") (Profile.snapshot ()) with
  | Some e -> e.Profile.calls
  | None -> 0

let test_one_conversion_per_function () =
  List.iter
    (fun (name, _) ->
      let res = Driver.run (profile_source name) in
      let calls = l2_calls () in
      let graph = Callgraph.of_funcs res.Driver.l1_prog.Ac_monad.M.funcs in
      Alcotest.(check bool) (name ^ ": call graph is acyclic") false
        (List.exists (Callgraph.scc_cyclic graph) (Callgraph.sccs graph));
      Alcotest.(check int) (name ^ ": one L2 conversion per function")
        (List.length res.Driver.funcs) calls)
    unit_digests

let test_recursive_component_bounded () =
  let res = Driver.run (read_file "../corpus/mutual_parity.c") in
  let calls = l2_calls () in
  let graph = Callgraph.of_funcs res.Driver.l1_prog.Ac_monad.M.funcs in
  let bound =
    List.fold_left
      (fun n scc ->
        n + if Callgraph.scc_cyclic graph scc then 2 * List.length scc else List.length scc)
      0 (Callgraph.sccs graph)
  in
  Alcotest.(check bool) "mutual_parity has a recursive component" true
    (List.exists (Callgraph.scc_cyclic graph) (Callgraph.sccs graph));
  Alcotest.(check bool)
    (Printf.sprintf "%d L2 conversions <= %d (2x per recursive member)" calls bound)
    true (calls <= bound)

(* [top] calls [leaf]; both fail L2 outright.  The schedule converts [leaf]
   first (it is lower in the call graph), but the failure raised must be
   [top]'s: the first failing function in source order, as with any other
   per-function phase. *)
let test_first_failure_in_source_order () =
  let src =
    "unsigned top(unsigned x) { unsigned r = 0u; r = leaf(x); return r; }\n\
     unsigned leaf(unsigned y) { return y + 1u; }\n"
  in
  Fun.protect
    ~finally:(fun () -> Thm.set_fault_hook None)
    (fun () ->
      Thm.set_fault_hook (Some (fun rule -> rule = "rw_lift"));
      match Driver.run src with
      | _ -> Alcotest.fail "expected Diag.Error without --keep-going"
      | exception Diag.Error d ->
        Alcotest.(check (option string)) "first failing function in source order"
          (Some "top") d.Diag.d_func)

let suite =
  [
    ("translate output pinned: Table 5 units", `Slow, test_units_pinned);
    ("translate output pinned: corpus", `Slow, test_corpus_pinned);
    ("one L2 conversion per function (acyclic units)", `Slow, test_one_conversion_per_function);
    ("recursive component converts at most twice per member", `Quick,
     test_recursive_component_bounded);
    ("L2 failure reported in source order", `Quick, test_first_failure_in_source_order);
  ]
