(** Per-rule cost attribution for maintenance batches.

    Aggregate counters answer "how much work happened"; this module
    answers {e which rule} did it.  [View_manager] brackets each
    maintenance batch with {!batch_begin}/{!batch_end}; the algorithm
    layers publish the ambient stratum/phase {e context} before each
    round.  The round engine ([Ivm_eval.Par_eval]) is the one place that
    runs maintenance rules: each rule task measures its own work (wall
    time, Δ-tuples in/out, and probes/scans/derivations/index builds read
    from the running domain's counter shards, so per-rule numbers stay
    exact under parallel evaluation), and the coordinating domain folds
    the samples in task order through {!add}, beside the buffer commits.
    Ad-hoc queries do not run on the round engine and are never
    attributed.  The finished batch backs the shell's [explain last], the
    monitor's [/statusz], cumulative labeled [/metrics] families
    ([ivm_rule_wall_ns_total{rule=…}] etc.), and an optional slow-batch
    JSON log line on stderr ([IVM_SLOW_BATCH_MS]).

    Row wall times are per-domain and overlap under parallel fan-out, so
    {!type-batch.busy_wall_ns} (their sum) may exceed the elapsed
    {!type-batch.total_wall_ns}; with one domain, busy ≤ total.

    On by default; [IVM_ATTRIBUTION=0] (or [off]/[false]/[no]) disables,
    so tasks take no sample unless tracing is on.  Overhead is measured
    in EXPERIMENTS.md E15. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Tag subsequent {!add} calls with a stratum and phase (e.g.
    ["delta"], ["delete"], ["rederive"], ["insert"]).  Call from the
    coordinating domain only, before a round — never during one. *)
val set_context : stratum:int -> phase:string -> unit

val get_context : unit -> int * string

type row = {
  rule : string;
  stratum : int;
  phase : string;
  mutable evals : int;  (** rule tasks folded into this row *)
  mutable wall_ns : int;
  mutable din : int;  (** Δ-tuples seeding the evaluations *)
  mutable dout : int;  (** tuples derived *)
  mutable probes : int;
  mutable scanned : int;
  mutable derivations : int;
  mutable index_builds : int;
}

type batch = {
  algorithm : string;
  seq : int;  (** batch number since process start (1-based) *)
  total_wall_ns : int;  (** elapsed wall clock of the whole batch *)
  busy_wall_ns : int;  (** Σ row wall; may exceed total under parallelism *)
  truncated : int;  (** tasks folded into no row (table full) *)
  rows : row list;  (** wall-time descending *)
}

(** Rows the per-batch table holds before counting overflow into
    {!type-batch.truncated}. *)
val max_rows : int

(** Open a fresh attribution table for the coming batch (no-op when
    disabled). *)
val batch_begin : algorithm:string -> unit

(** Fold one rule task's sample into the current batch — a no-op when
    disabled or outside a batch.  Coordinating domain only: the round
    engine calls it in task order after the round's fan-out, so there is
    no lock. *)
val add :
  rule:string -> wall_ns:int -> din:int -> dout:int -> probes:int ->
  scanned:int -> derivations:int -> index_builds:int -> unit

(** Close the current batch: sort rows by wall time, store it in the
    bounded history, refresh the labeled metric families, emit the
    slow-batch log line if over threshold.  Returns the finalized batch
    ([None] when disabled or no batch was open). *)
val batch_end : total_wall_ns:int -> batch option

(** Most recently finished batch, if any. *)
val last : unit -> batch option

(** Finished batches, newest first (bounded history of 8). *)
val recent : unit -> batch list

(** Override the [IVM_SLOW_BATCH_MS] threshold; [None] disables the
    slow-batch log line. *)
val set_slow_threshold_ms : float option -> unit

val row_json : row -> Json.t
val batch_json : batch -> Json.t

(** The [explain last] cost table: batch header, then one line per rule,
    slowest first.  [top] bounds the rows printed (default: all). *)
val pp_batch : ?top:int -> Format.formatter -> batch -> unit
