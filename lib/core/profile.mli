(** Per-phase profiling counters for the pipeline (wall clock and
    allocation).  {!Driver.run} resets the counters at its start and
    records each phase's per-function work; a snapshot taken afterwards
    describes that run. *)

(** Monotonic wall clock in seconds ([CLOCK_MONOTONIC]): the clock for
    deadlines and watchdogs (serve's request watchdog, store-lock
    backoff), immune to system-clock steps.  Only its differences are
    meaningful. *)
val mono_s : unit -> float

type entry = {
  phase : string;
  calls : int;  (** units of work recorded (usually functions processed) *)
  wall_s : float;  (** cumulative wall-clock seconds *)
  alloc_bytes : float;  (** bytes allocated *)
}

val reset : unit -> unit

(** [record ?cat ?func phase f] runs [f ()], folding its wall time and
    allocation into [phase]'s accumulator.  Exceptions propagate,
    with the partial work still counted.  When tracing is enabled the
    unit of work is also emitted as an [Obs] span named [phase] in
    category [cat] (default ["driver"]) with [func] (the function being
    processed, when known) attached as a span argument. *)
val record : ?cat:string -> ?func:string -> string -> (unit -> 'a) -> 'a

(** Per-phase totals in pipeline order. *)
val snapshot : unit -> entry list

(** Sum of wall seconds over all phases. *)
val total_wall : unit -> float

(** The snapshot as a JSON object [{"phases":[...]}]. *)
val to_json : unit -> string
