(* Seeded Table 5 units for the benchmark, run by the OCaml toplevel from
   the root of a source checkout:

     ocaml -noinit perfbench/gen.ml SEED OUTDIR PROFILE...

   Writes OUTDIR/PROFILE.c for each named Ac_codegen profile, with the
   profile's seed moved by the workload seed: unit seed = profile seed +
   4*SEED, so SEED = 0 gives the paper-row seeds 4001-4004.  The generator
   is the repository's own lib/codegen/ac_codegen.ml, loaded from source,
   so the benchmark needs no compiled helper of its own. *)

#directory "lib/codegen";;
#mod_use "ac_codegen.ml";;

let () =
  match Array.to_list Sys.argv with
  | _ :: seed :: out :: names ->
    let seed = int_of_string seed in
    List.iter
      (fun name ->
        match List.find_opt (fun p -> p.Ac_codegen.p_name = name) Ac_codegen.profiles with
        | None ->
          prerr_endline ("gen.ml: unknown profile " ^ name);
          exit 2
        | Some p ->
          let p = { p with Ac_codegen.seed = p.Ac_codegen.seed + (4 * seed) } in
          Out_channel.with_open_bin
            (Filename.concat out (name ^ ".c"))
            (fun oc -> output_string oc (Ac_codegen.generate p)))
      names
  | _ ->
    prerr_endline "usage: ocaml -noinit perfbench/gen.ml SEED OUTDIR PROFILE...";
    exit 2
