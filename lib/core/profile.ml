(* Per-phase profiling counters for the pipeline.

   [record phase f] measures one unit of phase work — wall-clock seconds
   and bytes allocated — and folds it into the phase's accumulator.  The
   pipeline runs on one domain, so one table serves every phase.

   The driver resets the counters at the start of every [Driver.run], so
   a snapshot taken after [run] (+ [check_all]) describes that run. *)

(* Monotonic wall clock in seconds (bechamel's CLOCK_MONOTONIC stub).
   This is the clock for every deadline and watchdog in the service path
   — serve's request watchdog, lock backoff — which must not jump when
   the system clock is stepped (NTP slew, manual `date`, VM resume).  [Unix.gettimeofday] remains correct only for
   calendar timestamps and file-mtime comparisons. *)
let mono_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type entry = {
  phase : string;
  calls : int;
  wall_s : float;
  alloc_bytes : float;
}

type cell = { mutable c_calls : int; mutable c_wall : float; mutable c_alloc : float }

let table : (string, cell) Hashtbl.t = Hashtbl.create 16

(* Phases in pipeline order, so snapshots render in a stable, meaningful
   order regardless of which phase happened to be recorded first. *)
let canonical_order =
  [ "parse"; "l1"; "l2"; "guard_discharge"; "heap_abs"; "word_abs"; "chain"; "check" ]

let reset () = Hashtbl.reset table

let add phase dt da =
  let c =
    match Hashtbl.find_opt table phase with
    | Some c -> c
    | None ->
      let c = { c_calls = 0; c_wall = 0.; c_alloc = 0. } in
      Hashtbl.add table phase c;
      c
  in
  c.c_calls <- c.c_calls + 1;
  c.c_wall <- c.c_wall +. dt;
  c.c_alloc <- c.c_alloc +. da

let record ?(cat = "driver") ?func (phase : string) (f : unit -> 'a) : 'a =
  let measured () =
    let t0 = Unix.gettimeofday () in
    let a0 = Gc.allocated_bytes () in
    Fun.protect
      ~finally:(fun () ->
        add phase (Unix.gettimeofday () -. t0) (Gc.allocated_bytes () -. a0))
      f
  in
  (* Gate here (not just inside [Obs.span]) so the args list is never
     allocated when tracing is off. *)
  if Ac_obs.Obs.enabled () then
    let args = match func with Some fn -> [ ("func", fn) ] | None -> [] in
    Ac_obs.Obs.span ~cat ~args phase measured
  else measured ()

let snapshot () : entry list =
  let all =
    Hashtbl.fold
      (fun phase c acc ->
        { phase; calls = c.c_calls; wall_s = c.c_wall; alloc_bytes = c.c_alloc } :: acc)
      table []
  in
  let rank p =
    let rec go i = function
      | [] -> List.length canonical_order
      | q :: rest -> if String.equal p q then i else go (i + 1) rest
    in
    go 0 canonical_order
  in
  List.sort
    (fun a b ->
      match Int.compare (rank a.phase) (rank b.phase) with
      | 0 -> String.compare a.phase b.phase
      | c -> c)
    all

let total_wall () = List.fold_left (fun acc e -> acc +. e.wall_s) 0. (snapshot ())

let to_json () : string =
  let entries =
    List.map
      (fun e ->
        Printf.sprintf
          "{\"phase\":\"%s\",\"calls\":%d,\"wall_s\":%.6f,\"alloc_bytes\":%.0f}"
          e.phase e.calls e.wall_s e.alloc_bytes)
      (snapshot ())
  in
  Printf.sprintf "{\"phases\":[%s]}" (String.concat "," entries)
