(** The library's front door: a materialized-view database plus an
    incremental-maintenance policy.

    A manager owns a {!Ivm_eval.Database} (program + stored relations with
    derivation counts) and routes every change batch through one of the
    paper's algorithms; [Auto] follows the paper's own recommendation —
    counting for nonrecursive programs, DRed otherwise (Section 1) — with
    counted DRed as its DRed. *)

module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Ast = Ivm_datalog.Ast
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database

(** The algorithm contract — which algorithm maintains which programs
    (Sections 4, 7 and 8):

    {v
    algorithm            program        semantics   stored counts
    Counting             nonrecursive   set or dup  exact
    Dred                 any            set         stale (sets exact)
    Dred_counted         any            set         exact (one-step)
    Recursive_counting   any            duplicate   exact (diverges, detected,
                                                    on cyclic data)
    Recompute            any            any         exact (one-step)
    Auto                 counting if nonrecursive, else counted DRed (as above);
                         per unit, re-evaluated when its input delta is large
    v}

    Every incremental algorithm runs through one driver,
    {!Delta.maintain}, one step per maintenance unit: Counting's delta
    rules on a nonrecursive unit under every count-exact algorithm, DRed's
    phases or recursive counting's fixpoint on an SCC, and the paper's
    three phases on every unit under explicit [Dred].  [Dred_counted] is
    DRed combined with counting (Hu, Motik & Horrocks, arXiv:1711.03987)
    on each SCC: every stored tuple holds its one-step derivation count,
    so rederivation is a filter over the overdeleted tuples and evaluates
    no rule ({!Dred.maintain} [~mode:Counted]).  A short log tail
    replays as one net batch under DRed, counted or not; record by
    record under the counting algorithms.  A tail that is a large share
    of the base relations under [Auto], any tail under [Recompute], and
    any tail over a stale image under a count-exact resolution are
    instead applied to the base relations, and the views evaluated once
    from them ({!open_durable}).

    [Auto] is the only entry that enables the driver's per-unit cost
    rule: a unit whose net input delta reaches a constant share of its
    stored inputs (a share per step) is re-evaluated from its finished
    inputs instead of maintained, live and in recovery alike, with the
    same stored counts.  Explicit [Counting], [Dred] and [Dred_counted]
    run their steps unchanged.

    {!create}, {!of_source}, {!open_durable}, {!set_algorithm} and
    {!add_rule} refuse a combination outside this table with
    [Invalid_argument] naming it, before anything changes: the relations,
    the algorithm, {!state_version}, the log and the store files stay as
    they were.  {!remove_rule} never leaves the table (removal creates no
    recursion); {!of_database} wraps without checking.

    Every algorithm but explicit [Dred] keeps exact counts, so only
    leaving [Dred] — by {!set_algorithm}, or by reopening one of its
    snapshots or a version-1 one — re-derives the views. *)
type algorithm =
  | Counting  (** Algorithm 4.1 *)
  | Dred  (** Delete/Rederive *)
  | Dred_counted  (** Delete/Rederive over one-step derivation counts *)
  | Recursive_counting  (** [GKM92]: counts through recursion *)
  | Recompute  (** the from-scratch baseline *)
  | Auto  (** the paper's recommendation, with a per-unit cost rule *)

val algorithm_name : algorithm -> string
val algorithm_of_string : string -> algorithm option

type t

(** Create a manager from rules and initial base facts; materializes all
    views eagerly.  [extra_base] declares base relations (name, arity) not
    otherwise mentioned.  [domains] sets the process-global domain count
    for parallel delta evaluation ({!Ivm_par.set_domains}); omitted, the
    current setting stays (1 unless [IVM_DOMAINS] or an earlier call
    changed it).  [durable] names a store directory: if it already holds a
    store, the on-disk state wins — it is reopened through {!open_durable}
    and the given rules/facts are ignored; otherwise the fresh manager is
    snapshotted into it and subsequent batches are write-ahead logged.
    @raise Invalid_argument outside the {!algorithm} contract. *)
val create :
  ?semantics:Database.semantics ->
  ?algorithm:algorithm ->
  ?extra_base:(string * int) list ->
  ?distinct:string list ->
  ?facts:(string * Tuple.t list) list ->
  ?domains:int ->
  ?durable:string ->
  Ast.rule list ->
  t

(** Create from Datalog source text (rules and facts together). *)
val of_source :
  ?semantics:Database.semantics ->
  ?algorithm:algorithm ->
  ?extra_base:(string * int) list ->
  ?distinct:string list ->
  ?domains:int ->
  ?durable:string ->
  string ->
  t

(** Wrap an already-materialized database (e.g. one loaded from a
    snapshot) without re-evaluating anything.  Unless [algorithm]
    resolves to explicit [Dred], its counts must be exact — through
    recursion {!Ivm_eval.Seminaive.evaluate} [~counts:true]'s one-step
    counts, as {!Recompute.evaluate} stores them — else maintenance can
    drop tuples that still have a derivation.  Not checked. *)
val of_database : ?algorithm:algorithm -> Database.t -> t

val database : t -> Database.t
val program : t -> Program.t
val relation : t -> string -> Relation.t
val semantics : t -> Database.semantics
val algorithm : t -> algorithm

(** The algorithm [Auto] resolves to on the current program. *)
val resolve : t -> algorithm

(** Switch the maintenance algorithm in place (@raise Invalid_argument
    outside the {!algorithm} contract, nothing changed).  Leaving
    explicit [Dred] first re-derives every view from scratch: DRed
    leaves stored derivation counts stale, and every other algorithm
    keeps them exact.  Not WAL-logged: on a durable manager the switch
    folds the log into a fresh snapshot, like rule changes. *)
val set_algorithm : t -> algorithm -> unit

(** Apply one batch of base-relation changes.  Returns the per-view deltas
    of the derived predicates, in name order (set transitions under set
    semantics, count deltas under duplicate semantics); empty for
    [Recompute].  On a durable manager the
    normalized batch is appended to the write-ahead log and fsync'd before
    maintenance runs (see {!Ivm_store.Store}). *)
val apply : t -> Changes.t -> (string * Relation.t) list

(** Stage-timing callbacks for {!apply_group}, the hook the serve path's
    request tracing hangs off ([Ivm_obs.Reqtrace]) without [lib/core]
    knowing about requests.  [batch_stage i name t0 t1] reports one
    timed stage of batch [i] ([normalize], [wal_append], [maintain]);
    [group_stage name t0 t1] reports a group-wide stage ([fsync] — once
    per group, zero-duration on a non-durable manager so every committed
    batch still carries exactly one fsync stage, ARCHITECTURE.md
    invariant 12).  Times are [Unix.gettimeofday] seconds; callbacks run
    on the applying domain and must not raise. *)
type group_hooks = {
  batch_stage : int -> string -> float -> float -> unit;
  group_stage : string -> float -> float -> unit;
}

(** Group commit: apply several batches in order with {e one} fsync.
    Each batch is normalized against the state the previous batches
    left, write-ahead logged without syncing, and maintained; one
    {!Ivm_store.Store.sync} after the last batch makes the whole group
    durable (non-durable managers skip the log entirely).  Validation
    failures are isolated to their slot ([Error msg], nothing logged or
    applied for that batch); the rest of the group proceeds.  The caller
    must not acknowledge or publish any batch of the group before this
    function returns — inside the group, maintenance runs ahead of the
    fsync (see ARCHITECTURE.md invariant 11 and [Ivm_serve.Server]).
    [hooks], when given, receives per-batch and group stage timings (a
    stage that raises reports nothing, so an [Error] slot's chain simply
    ends where the batch failed).  [track], when given, accumulates the
    group's exact net stored-count changes — base and derived — from the
    deltas the algorithms commit ({!Changes.absorb}); a batch
    maintained by recomputation marks the collector incomplete instead
    (the snapshot publisher then falls back to a full copy). *)
val apply_group :
  ?hooks:group_hooks -> ?track:Changes.collector -> t -> Changes.t list ->
  ((string * Relation.t) list, string) result list

(** Out-of-band mutation counter: bumped whenever stored relations may
    have been rewritten outside tracked batch maintenance (rule
    add/remove, algorithm switch, incremental-aggregate enablement).
    Monotonic; the snapshot publisher compares it across groups. *)
val state_version : t -> int

(** Move the manager onto an equal deep copy of its database, indexes
    included ([Database.copy ~with_indexes:true]), and leave the old
    database untouched for whoever still holds it.  The snapshot
    publisher calls it when a reader still pins the live database after
    a publish.  Stored counts do not change, so {!state_version}, the
    algorithm and the store stay as they were. *)
val fork_database : t -> unit

(** {1 Durability}

    A durable manager pairs the in-memory database with an
    {!Ivm_store.Store}: a checksummed snapshot plus a write-ahead change
    log.  Every batch {!apply} validates is logged (fsync'd) before the
    maintenance algorithm touches any relation; restart replays only the
    log tail through the same maintenance path instead of re-deriving the
    views — the paper's "maintenance beats recomputation" argument applied
    to recovery. *)

(** Open an existing store directory, bring its views to the end of the
    log, attach the log for subsequent batches.  The snapshot's base
    relations are decoded and the surviving log tail folded into one net
    base change, every record validated against the state the records
    before it leave.  Then, in one of three modes (the [mode] label of
    [ivm_recovery_replays_total] and of the [store.replay] span, which
    also carries [net_tuples] and [net_ratio]):
    - [recompute]: the net change is applied to the base relations and
      every view is evaluated once from them; the snapshot's views are
      never decoded.  Taken under any resolution but explicit [Dred]
      when the snapshot is not marked [Exact]
      ({!Ivm_store.Snapshot.counts}: written under explicit DRed, or an
      unmarked version-1 image); under [Auto] when the net ratio
      ([Σ|net Δ| / Σ|stored|] over the changed base relations) reaches
      the largest threshold of Auto's cost rule among the steps it runs
      on the program's units ({!Delta.largest_threshold}: 0.35, or 0.07
      when every unit is recursive); under [Recompute] for any non-empty
      net change;
    - [net]: otherwise, under DRed (counted or not) and [Recompute], the
      snapshot's views are decoded and the net change maintained as one
      batch;
    - [per_record]: otherwise, under Counting and recursive counting,
      the views are decoded and the tail replayed record by record.
    Every count-exact resolution stores what evaluation produces, so
    the modes reach the same state.  A stale image's re-derivation is
    then compacted once, so the directory holds an [Exact] image and the
    next open re-derives nothing; a large tail alone is not compacted.
    The returned {!Ivm_store.Store.recovery} says what was replayed,
    skipped, or dropped (torn/corrupt tail bytes).
    @raise Ivm_store.Store.Corrupt on an unrecoverable snapshot/log.
    @raise Invalid_argument outside the {!algorithm} contract, and
    @raise Changes.Invalid_changes if a record fails validation; either
    way the log is closed first and the store's files are left as they
    were. *)
val open_durable : ?algorithm:algorithm -> string -> t * Ivm_store.Store.recovery

(** Turn an in-memory manager durable: snapshot its current state into the
    directory (created if needed) and start logging subsequent batches.
    @raise Invalid_argument if already durable or the directory already
    holds a store. *)
val make_durable : t -> dir:string -> unit

(** Fold the log into a fresh snapshot of the current state and reset it.
    Rule changes and {!enable_incremental_aggregates} — which are not
    logged — compact implicitly.
    @raise Invalid_argument on a non-durable manager. *)
val compact : t -> unit

(** [None] on a non-durable manager. *)
val store_status : t -> Ivm_store.Store.status option

val durable_dir : t -> string option

(** Close the log file descriptor and detach the store; the manager keeps
    working, in-memory only.  No-op when not durable. *)
val close_store : t -> unit

val insert : t -> string -> Tuple.t list -> (string * Relation.t) list
val delete : t -> string -> Tuple.t list -> (string * Relation.t) list

val update :
  t -> string -> old_tuple:Tuple.t -> new_tuple:Tuple.t ->
  (string * Relation.t) list

(** Opt every GROUPBY subgoal of the program into persistent incremental
    aggregation ([DAJ91] accumulators, {!Ivm_eval.Agg_index}): subsequent
    maintenance computes aggregate deltas from running group states
    instead of re-scanning touched groups. *)
val enable_incremental_aggregates : t -> unit

(** Add a rule to the program, incrementally maintaining all views
    (Section 7's view redefinition).  @raise Invalid_argument when the
    algorithm cannot maintain the extended program, nothing changed. *)
val add_rule : t -> Ast.rule -> unit

val add_rule_text : t -> string -> unit

(** Remove a rule (matched structurally), incrementally maintaining all
    views.  @raise Rule_changes.Unknown_rule if absent. *)
val remove_rule : t -> Ast.rule -> unit

val remove_rule_text : t -> string -> unit

(** Recompute every view from scratch and compare with the maintained
    materializations: [Ok ()] when they agree (with counts under every
    algorithm but explicit [Dred], as sets under it). *)
val audit : t -> (unit, string) result

val pp : Format.formatter -> t -> unit

(** {1 Provenance & lineage}

    [why] needs no capture: {!Ivm_prov.Prov_query} enumerates a tuple's
    derivations from the live database at query time.  The switch below
    turns on batch lineage ({!Ivm_prov.Prov}): per-tuple first-derived /
    last-deleted batches and the batch ring.  The lineage store is
    process-global: with several managers in one process, enable it on
    only one. *)

(** Switch lineage capture on (the store starts empty). *)
val enable_provenance : t -> unit

(** Switch lineage capture off and clear the store. *)
val disable_provenance : t -> unit

val provenance_enabled : t -> bool

(** Database-access closures for the {!Ivm_prov.Prov_query} layer
    ([why] / [why not] / [lineage]); reads through to the live database,
    surviving rule changes. *)
val provenance_access : t -> Ivm_prov.Prov_query.db_access

(** Parse ["p(v1, …)"] (trailing period optional) as one ground fact. *)
val parse_fact : string -> (string * Tuple.t, string) result

(** One-stop EXPLAIN for the monitor's [/why] endpoint: [why] (when the
    fact is present) or [why not] (when absent) bundled with its
    [lineage] as one JSON document; [Error] on a parse failure or
    unknown predicate. *)
val explain_json : t -> string -> (Ivm_obs.Json.t, string) result

(** The manager's state as JSON — the monitor's [/statusz] body (minus
    process-level fields like uptime, which the server adds): algorithm,
    semantics, domain count, per-view tuple counts (with strata),
    durable-store status ([null] when not durable), and the most recent
    batch's wall time plus its per-rule attribution
    ({!Ivm_obs.Attribution.batch_json}). *)
val status_json : t -> Ivm_obs.Json.t
