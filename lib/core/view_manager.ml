(** The library's front door: a materialized-view database plus an
    incremental maintenance policy.  The interface tables the algorithm
    contract on [algorithm] — which of the paper's algorithms maintains
    which programs, and how every entry point refuses the rest; the
    functions under "The algorithm contract" below implement it.

    Rule insertions/deletions (Section 7's view redefinition) go through
    {!Rule_changes} with the same policy. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Ast = Ivm_datalog.Ast
module Parser = Ivm_datalog.Parser
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Seminaive = Ivm_eval.Seminaive
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace

type algorithm = Counting | Dred | Dred_counted | Recursive_counting | Recompute | Auto

let algorithm_name = function
  | Counting -> "counting"
  | Dred -> "dred"
  | Dred_counted -> "dred-counted"
  | Recursive_counting -> "recursive-counting"
  | Recompute -> "recompute"
  | Auto -> "auto"

let algorithm_of_string = function
  | "counting" -> Some Counting
  | "dred" -> Some Dred
  | "dred-counted" -> Some Dred_counted
  | "recursive-counting" -> Some Recursive_counting
  | "recompute" -> Some Recompute
  | "auto" -> Some Auto
  | _ -> None

let semantics_name = function
  | Database.Set_semantics -> "set"
  | Database.Duplicate_semantics -> "duplicate"

(* ------------------------------------------------------------------ *)
(* The algorithm contract                                               *)
(* ------------------------------------------------------------------ *)

(* These functions, with [algorithm_name] and [algorithm_of_string],
   are the only code that matches on an [algorithm]: every entry point
   makes each per-algorithm decision through them. *)

(** What [algorithm] means for [program]: [Auto] is the paper's
    recommendation, counting when nonrecursive and DRed otherwise — the
    counted DRed, which keeps DRed's sets without its backward
    rederivation. *)
let resolve algorithm program =
  match algorithm with
  | Auto -> if Program.nonrecursive program then Counting else Dred_counted
  | a -> a

(** Whether [algorithm] can maintain [program] under [semantics];
    [Error] says what the resolved algorithm lacks. *)
let supports algorithm program semantics : (unit, string) result =
  match resolve algorithm program with
  | Counting when not (Program.nonrecursive program) ->
    Error
      "counting maintains nonrecursive programs only (use dred, \
       recursive-counting or recompute)"
  | (Dred | Dred_counted) as a when semantics = Database.Duplicate_semantics ->
    Error
      (algorithm_name a
     ^ " maintains set semantics only (use recursive-counting or recompute)")
  | Recursive_counting when semantics = Database.Set_semantics ->
    Error "recursive-counting maintains duplicate semantics only (use dred or recompute)"
  | Counting | Dred | Dred_counted | Recursive_counting | Recompute | Auto -> Ok ()

(** Whether [algorithm] keeps [program]'s stored counts exact: every
    resolution does but explicit DRed, which keeps the tuple sets exact
    and lets the counts go stale.  Through recursion the exact counts are
    one-step derivation counts, which are counting's derivation counts on
    a nonrecursive program. *)
let counted algorithm program = resolve algorithm program <> Dred

(** Whether a log tail replays as one net batch: a DRed batch, counted or
    not, costs the region it over-deletes, not |Δ|, and recomputation
    costs the whole program; the counting algorithms cost O(|Δ|). *)
let replays_net algorithm program =
  match resolve algorithm program with
  | Dred | Dred_counted | Recompute -> true
  | Counting | Recursive_counting | Auto -> false

(** The incremental algorithm [algorithm] runs on [program], as the
    maintenance driver takes it; [None] for recomputation. *)
let incremental algorithm program =
  match resolve algorithm program with
  | Counting -> Some Counting.algorithm
  | Dred -> Some (Dred.algorithm Paper)
  | Dred_counted -> Some (Dred.algorithm Counted)
  | Recursive_counting -> Some (Recursive_counting.algorithm ())
  | Recompute | Auto -> None

(** The net ratio of a recovered log tail at and above which recovery
    evaluates the views once from the recovered base relations instead
    of replaying the tail into the snapshot's views — the heuristic of
    inertia (Section 1).  Under [Auto] it is the largest threshold of
    Auto's own cost rule among the steps it runs on the program's units
    ({!Delta.largest_threshold}); under [Recompute] any tail, since its
    replay re-evaluates every view anyway; the other explicit
    algorithms always replay. *)
let recomputes_at algorithm program =
  match algorithm with
  | Auto ->
    Option.map (fun alg -> Delta.largest_threshold alg program) (incremental algorithm program)
  | Recompute -> Some 0.
  | Counting | Dred | Dred_counted | Recursive_counting -> None

(** Materialize every view of [db] from its base relations: with exact
    counts, except under explicit DRed, which stores a recursive view as
    a set with count 1 (the paper's reference). *)
let evaluate algorithm db =
  match resolve algorithm (Database.program db) with
  | Dred -> Seminaive.evaluate db
  | Recursive_counting -> Recursive_counting.evaluate db
  | Counting | Dred_counted | Recompute | Auto -> Recompute.evaluate db

(** Maintain [db] through one batch and return the per-view deltas: one
    {!Delta.maintain} call, or recomputation.  [Auto] is resolved
    against [db] itself: during a rule change that is the rebuilt
    database, whose program may have just turned recursive.  Only [Auto]
    enables the cost rule: each unit whose input delta is large is
    re-evaluated instead of maintained, live and in recovery alike.
    [track] is handed every delta the incremental algorithms commit,
    whole (a re-evaluated unit commits there too); recomputation
    rewrites relations wholesale, so it marks [track] incomplete instead
    and the snapshot publisher falls back to a full copy. *)
let maintain ?track algorithm db changes : (string * Relation.t) list =
  match incremental algorithm (Database.program db) with
  | Some alg -> (
    let report = Delta.maintain ?track ~auto:(algorithm = Auto) alg db changes in
    match Database.semantics db with
    | Database.Set_semantics -> report.Delta.propagated_deltas
    | Database.Duplicate_semantics -> report.Delta.view_deltas)
  | None ->
    Option.iter Changes.mark_incomplete track;
    (* No lineage transitions: recompute overwrites relations without a
       commit loop. *)
    Recompute.maintain db changes;
    []

(** Refuse an unsupported combination; every entry point that installs
    an algorithm or changes the program calls this before changing
    anything. *)
let require algorithm program semantics =
  match supports algorithm program semantics with
  | Ok () -> ()
  | Error why ->
    invalid_arg
      (Printf.sprintf "View_manager: %s refused under %s semantics: %s"
         (algorithm_name algorithm) (semantics_name semantics) why)

(* ------------------------------------------------------------------ *)
(* The manager                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable db : Database.t;
  mutable algorithm : algorithm;
  mutable incremental_aggregates : bool;
  mutable store : Ivm_store.Store.t option;
      (** durable mode: every validated batch is WAL-logged (fsync'd)
          before maintenance applies it — see {!open_durable} *)
  state_version : int Atomic.t;
      (** bumped on every out-of-band state mutation (rule change,
          algorithm switch, incremental-aggregate enablement) — anything
          that rewrites stored relations outside per-tuple-tracked batch
          maintenance.  The snapshot publisher compares this across
          groups to detect that its incremental shadow is stale. *)
}

let algorithm t = t.algorithm
let database t = t.db
let program t = Database.program t.db
let relation t pred = Database.relation t.db pred
let semantics t = Database.semantics t.db

(* from here on, [resolve] is the manager's own resolution *)
let resolve t = resolve t.algorithm (program t)

(** Apply one batch of base-relation changes with the configured
    algorithm.  Returns the set transitions per derived predicate.

    Durable managers log first: the batch is normalized against the
    pre-state, appended to the write-ahead log and fsync'd {e before}
    maintenance touches any relation, so after a crash a batch is either
    durable or never happened.

    Observability: the whole batch runs under a [maintain_batch] span
    (the root of the batch → stratum → rule span tree), its end-to-end
    wall clock feeds [ivm_batch_latency_ns{algorithm=...}] and the
    [ivm_last_batch_ns] gauge, per-rule cost attribution is collected
    between {!Ivm_obs.Attribution.batch_begin}/[batch_end] (backing
    [explain last], the labeled rule families on [/metrics], and the
    slow-batch log line), and the per-relation gauges are refreshed
    after commit. *)
let last_batch_g =
  Metrics.gauge "ivm_last_batch_ns"
    ~help:"Wall time of the most recent maintenance batch, nanoseconds"

let maintain_batch ?track (t : t) (changes : Changes.t) :
    (string * Relation.t) list =
  let name = algorithm_name (resolve t) in
  let t0 = Unix.gettimeofday () in
  Ivm_obs.Attribution.batch_begin ~algorithm:name;
  Ivm_prov.Prov.batch_begin ~algorithm:name;
  let finish () =
    let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    ignore (Ivm_obs.Attribution.batch_end ~total_wall_ns:wall_ns);
    Metrics.observe
      (Metrics.histogram ~labels:[ ("algorithm", name) ] "ivm_batch_latency_ns")
      wall_ns;
    Metrics.set last_batch_g (float_of_int wall_ns)
  in
  let deltas =
    Fun.protect ~finally:finish (fun () ->
        Trace.span "maintain_batch"
          ~args:(fun () -> [ ("algorithm", name) ])
          (fun () -> maintain ?track t.algorithm t.db changes))
  in
  Database.observe_gauges t.db;
  deltas

let apply (t : t) (changes : Changes.t) : (string * Relation.t) list =
  let changes =
    match t.store with
    | None -> changes
    | Some store ->
      (* normalizing first makes the log record exactly what maintenance
         will apply (and rejects invalid batches before logging them) *)
      let normalized = Changes.normalize_base t.db changes in
      Ivm_store.Store.append store normalized;
      normalized
  in
  maintain_batch t changes

(** Group commit (the [ivm_serve] writer's path): apply a whole queue of
    batches with {e one} fsync.  Each batch is normalized against the
    database state the previous batches left (so deletion validity and
    set-semantics collapsing see the right pre-state), appended to the
    WAL {e without} syncing, and maintained; after the last batch a
    single {!Ivm_store.Store.sync} makes the whole group durable.

    Per-batch validation failures are isolated: an invalid batch yields
    [Error msg] in its slot, is never logged, and leaves the database
    untouched — the rest of the group proceeds.  Callers must treat the
    group as {b unpublished} until this function returns: maintenance
    runs ahead of the fsync inside the group, so acknowledging or
    exposing a batch earlier would break the
    "no reader observes an un-fsync'd batch" invariant
    (ARCHITECTURE.md invariant 11).  A crash mid-group loses only
    un-acknowledged batches: the WAL tail is torn and truncated on
    recovery. *)
type group_hooks = {
  batch_stage : int -> string -> float -> float -> unit;
  group_stage : string -> float -> float -> unit;
}

let apply_group ?hooks ?track (t : t) (batches : Changes.t list) :
    ((string * Relation.t) list, string) result list =
  (* timestamps are taken only when a hook is installed, so the unhooked
     path is byte-for-byte the old one *)
  let batch_stage i name f =
    match hooks with
    | None -> f ()
    | Some h ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      h.batch_stage i name t0 (Unix.gettimeofday ());
      r
  in
  let group_stage name f =
    match hooks with
    | None -> f ()
    | Some h ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      h.group_stage name t0 (Unix.gettimeofday ());
      r
  in
  let results =
    List.mapi
      (fun i changes ->
        (* only validation failures are recoverable: they happen before
           the append, so an [Error] batch left no trace anywhere.  A
           maintenance exception after the append must propagate — the
           WAL and memory would otherwise silently diverge. *)
        match
          batch_stage i "normalize" (fun () ->
              Changes.normalize_base t.db changes)
        with
        | exception Changes.Invalid_changes msg -> Error msg
        | exception Program.Program_error msg -> Error msg
        | exception Invalid_argument msg -> Error msg
        | normalized ->
          (match t.store with
          | Some store ->
            batch_stage i "wal_append" (fun () ->
                Ivm_store.Store.append ~sync:false store normalized)
          | None -> ());
          Ok
            (batch_stage i "maintain" (fun () ->
                 maintain_batch ?track t normalized)))
      batches
  in
  (* one fsync per group (zero-duration without a store, so a committed
     batch's stage chain always carries exactly one fsync — invariant 12) *)
  group_stage "fsync" (fun () ->
      match t.store with
      | Some store -> Ivm_store.Store.sync store
      | None -> ());
  results

(** Wrap an already-materialized database (e.g. one loaded from a
    snapshot) without re-evaluating anything: its stored counts must be
    exact unless [algorithm] resolves to explicit DRed ({!counted}).  The
    incremental-aggregates flag is inferred from the registered
    indexes. *)
let of_database ?(algorithm = Auto) (db : Database.t) : t =
  {
    db;
    algorithm;
    incremental_aggregates = Database.agg_signatures db <> [];
    store = None;
    state_version = Atomic.make 0;
  }

let register_agg_indexes (t : t) : unit =
  List.iter
    (fun rule ->
      List.iter
        (fun lit ->
          match lit with
          | Ast.Lagg agg ->
            ignore
              (Database.register_agg_index t.db
                 (Ivm_eval.Compile.compile_agg_spec agg))
          | Ast.Lpos _ | Ast.Lneg _ | Ast.Lcmp _ -> ())
        rule.Ast.body)
    (Program.rules (Database.program t.db))

(* Evaluate every view from the base relations, which drops the
   aggregate indexes over the rewritten views; re-register them. *)
let rederive (t : t) =
  evaluate t.algorithm t.db;
  if t.incremental_aggregates then register_agg_indexes t

(** How {!open_durable} brought the views up to the end of the log:
    evaluated once from the recovered base relations, or the snapshot's
    views with the tail replayed as one net batch or record by record. *)
type replay = From_base | Net_batch | Per_record

let replay_name = function
  | From_base -> "recompute"
  | Net_batch -> "net"
  | Per_record -> "per_record"

let replays_c =
  List.map
    (fun mode ->
      ( mode,
        Metrics.counter ~labels:[ ("mode", replay_name mode) ] "ivm_recovery_replays_total" ))
    [ From_base; Net_batch; Per_record ]

(** Fold a recovered log tail into one net base change.  Each record is
    validated against the state the records before it leave (the
    snapshot's base relations plus the pending net overlay), so an
    invalid record fails with the same [Invalid_changes] as per-record
    replay, before anything is maintained. *)
let fold_tail db (records : Changes.t list) : Changes.t =
  let pending = Changes.collector () in
  List.iter
    (fun record ->
      List.iter
        (fun (pred, delta) -> Changes.absorb pending pred delta)
        (Changes.normalize_base ~pending db record))
    records;
  Changes.collected pending

(** [Σ|net Δ| / Σ|stored|] over the changed base relations: the measure
    of {!Delta}'s cost rule, on the base relations the snapshot holds. *)
let net_ratio db (net : Changes.t) =
  let changed, stored =
    List.fold_left
      (fun (changed, stored) (pred, delta) ->
        ( changed + Relation.cardinal delta,
          stored + Relation.cardinal (Database.relation db pred) ))
      (0, 0) net
  in
  float_of_int changed /. float_of_int (max 1 stored)

(** Open an existing durable store and bring its views to the end of the
    log.  The snapshot's base relations are decoded and the surviving
    log tail is folded into one net base change ({!fold_tail}).  Then,
    in one of three modes:

    - [recompute]: the views are evaluated once from the base relations
      with the net change applied, and the snapshot's views are never
      decoded.  Taken when the resolution keeps exact counts and the
      snapshot is not marked [Exact] (written under explicit DRed, or
      before the mark existed), or when the tail's {!net_ratio} reaches
      {!recomputes_at};
    - [net] or [per_record]: otherwise the snapshot's views are decoded
      and the tail replayed through maintenance — as one net batch where
      the resolution {!replays_net} (a DRed batch costs the region it
      over-deletes, and consecutive records over-delete overlapping
      regions), else record by record: the counting algorithms cost
      O(|Δ|) per batch, and merged, the Counting tail of EXPERIMENTS.md
      E24 derived less but ran slower.

    A stale image's re-derivation is written back once ({!compact}); a
    large tail alone is not.  The mode counts in
    [ivm_recovery_replays_total{mode}] and tags the [store.replay] span.
    The algorithm is refused before anything is evaluated, and if the
    refusal or the replay raises, the store is closed before the
    exception propagates; subsequent batches are logged. *)
let open_durable ?algorithm (dir : string) : t * Ivm_store.Store.recovery =
  let image, store, recovery = Ivm_store.Store.open_ ~dir in
  let records = recovery.Ivm_store.Store.replayed in
  (* the store handle is attached only after replay, so replayed batches
     are not appended to the log a second time *)
  let t =
    try
      let t = of_database ?algorithm image.Ivm_store.Snapshot.db in
      require t.algorithm (program t) (semantics t);
      let net = fold_tail t.db records in
      let ratio = net_ratio t.db net in
      let stale =
        recovery.Ivm_store.Store.counts <> Some Ivm_store.Snapshot.Exact
        && counted t.algorithm (program t)
      in
      let mode =
        match recomputes_at t.algorithm (program t) with
        | _ when stale -> From_base
        | Some at when net <> [] && ratio >= at -> From_base
        | _ -> if replays_net t.algorithm (program t) then Net_batch else Per_record
      in
      Trace.span "store.replay"
        ~args:(fun () ->
          [
            ("records", string_of_int (List.length records));
            ("mode", replay_name mode);
            ("net_tuples", string_of_int (Changes.total_tuples net));
            ("net_ratio", Printf.sprintf "%.4f" ratio);
          ])
        (fun () ->
          match mode with
          | From_base ->
            Recompute.apply_base t.db net;
            rederive t
          | Net_batch ->
            Lazy.force image.Ivm_store.Snapshot.views;
            if net <> [] then ignore (maintain_batch t net)
          | Per_record ->
            Lazy.force image.Ivm_store.Snapshot.views;
            List.iter (fun c -> ignore (maintain_batch t c)) records);
      Metrics.inc (List.assoc mode replays_c);
      (* the re-derived counts are exact: write them back once, so the
         next open trusts the image instead of re-deriving again *)
      if stale then Ivm_store.Store.compact ~counts:Ivm_store.Snapshot.Exact store t.db;
      t
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Ivm_store.Store.close store;
      Printexc.raise_with_backtrace e bt
  in
  t.store <- Some store;
  (t, recovery)

(** Turn an in-memory manager durable: snapshot its current state into
    [dir] (created if needed) and start logging subsequent batches. *)
let make_durable (t : t) ~(dir : string) : unit =
  match t.store with
  | Some s ->
    invalid_arg
      (Printf.sprintf "View_manager.make_durable: already durable in %s"
         (Ivm_store.Store.dir s))
  | None ->
    let counts = if counted t.algorithm (program t) then Ivm_store.Snapshot.Exact else Stale in
    t.store <- Some (Ivm_store.Store.initialize ~counts ~dir t.db)

(** Create a manager from rules and initial base facts; materializes all
    views eagerly.  [domains], when given, sets the process-global domain
    count for parallel delta evaluation ({!Ivm_par.set_domains}); the
    default leaves the current setting (1 unless [IVM_DOMAINS] or an
    earlier call changed it).  With [durable], the on-disk state wins: an
    existing store is reopened (recovering through {!open_durable}, the
    given rules/facts ignored); otherwise the fresh manager is snapshotted
    into the directory. *)
let create ?(semantics = Database.Set_semantics) ?(algorithm = Auto)
    ?(extra_base : (string * int) list = []) ?(distinct : string list = [])
    ?(facts : (string * Tuple.t list) list = []) ?domains ?durable
    (rules : Ast.rule list) : t =
  (match domains with Some n -> Ivm_par.set_domains n | None -> ());
  match durable with
  | Some dir when Ivm_store.Store.exists dir -> fst (open_durable ~algorithm dir)
  | _ ->
    let program = Program.make ~extra_base rules in
    require algorithm program semantics;
    let db = Database.create ~semantics program in
    List.iter (fun v -> Database.mark_distinct db v) distinct;
    List.iter (fun (pred, tuples) -> Database.load db pred tuples) facts;
    evaluate algorithm db;
    let t = of_database ~algorithm db in
    (match durable with Some dir -> make_durable t ~dir | None -> ());
    t

(** Create from program text (rules and facts together, Datalog syntax). *)
let of_source ?semantics ?algorithm ?extra_base ?distinct ?domains ?durable
    (src : string) : t =
  let rules, facts = Parser.split (Parser.parse_program src) in
  let facts = List.map (fun (p, vals) -> (p, [ Tuple.of_list vals ])) facts in
  create ?semantics ?algorithm ?extra_base ?distinct ?domains ?durable ~facts
    rules

(** Fold the log into a fresh snapshot of the current state and reset it.
    @raise Invalid_argument on a non-durable manager. *)
let compact (t : t) : unit =
  match t.store with
  | None -> invalid_arg "View_manager.compact: manager is not durable"
  | Some s ->
    let counts = if counted t.algorithm (program t) then Ivm_store.Snapshot.Exact else Stale in
    Ivm_store.Store.compact ~counts s t.db

let store_status (t : t) : Ivm_store.Store.status option =
  Option.map Ivm_store.Store.status t.store

let durable_dir (t : t) : string option = Option.map Ivm_store.Store.dir t.store

(** Close the log file descriptor and detach the store (the manager keeps
    working, in-memory only).  No-op when not durable. *)
let close_store (t : t) : unit =
  match t.store with
  | None -> ()
  | Some s ->
    Ivm_store.Store.close s;
    t.store <- None

(* Program and index changes are not WAL-logged; durable managers fold
   them straight into a fresh snapshot.  Every such change also rewrites
   stored state outside per-tuple-tracked maintenance, so the state
   version is bumped here — the snapshot publisher watches it. *)
let resnapshot (t : t) : unit =
  Atomic.incr t.state_version;
  if t.store <> None then compact t

(** Out-of-band mutation counter (rule changes, algorithm switches,
    aggregate enablement).  Monotonic; a change between two reads means
    stored relations may have been rewritten outside tracked batch
    maintenance. *)
let state_version (t : t) : int = Atomic.get t.state_version

let fork_database (t : t) : unit = t.db <- Database.copy ~with_indexes:true t.db

let insert t pred tuples =
  apply t (Changes.insertions (program t) pred tuples)

let delete t pred tuples =
  apply t (Changes.deletions (program t) pred tuples)

let update t pred ~old_tuple ~new_tuple =
  apply t (Changes.update (program t) pred ~old_tuple ~new_tuple)

(** Opt every GROUPBY subgoal of the program into persistent incremental
    aggregation ([DAJ91] accumulators; see {!Ivm_eval.Agg_index}):
    subsequent maintenance computes aggregate deltas from running group
    states instead of re-scanning touched groups. *)
let enable_incremental_aggregates (t : t) : unit =
  t.incremental_aggregates <- true;
  register_agg_indexes t;
  resnapshot t

(* Section 7's view redefinition: [change] rebuilds the database and
   maintains every view through the guard flip with the configured
   algorithm.  A change can flip what [Auto] resolves to only between two
   count-exact steps (Counting and counted DRed), so the maintained
   counts stay exact and nothing is re-derived; the rebuilt database
   carries no aggregate indexes, so they are re-registered.  Its lineage
   transitions are recorded under a batch of their own. *)
let change_rule (t : t) change (rule : Ast.rule) : unit =
  Ivm_prov.Prov.batch_begin ~algorithm:"rule-change";
  t.db <- change t.db ~maintain:(fun db c -> ignore (maintain t.algorithm db c)) rule;
  if t.incremental_aggregates then register_agg_indexes t;
  resnapshot t

(** Add a rule to the program, incrementally maintaining all views
    (Section 7, view redefinition).  Refused up front when the algorithm
    cannot maintain the extended program. *)
let add_rule (t : t) (rule : Ast.rule) : unit =
  require t.algorithm (Program.make (Program.rules (program t) @ [ rule ])) (semantics t);
  change_rule t Rule_changes.add_rule rule

let add_rule_text (t : t) (src : string) : unit = add_rule t (Parser.parse_rule src)

(** Remove a rule (matched structurally), incrementally maintaining all
    views.  Removal cannot make a supported program unsupported: it never
    creates recursion. *)
let remove_rule (t : t) (rule : Ast.rule) : unit =
  change_rule t Rule_changes.remove_rule rule

let remove_rule_text (t : t) (src : string) : unit =
  remove_rule t (Parser.parse_rule src)

(** Switch the maintenance algorithm in place.

    An unsupported combination is refused before anything changes.
    Leaving explicit DRed re-derives every view from scratch first: DRed
    keeps the stored tuple {e sets} exact but lets the derivation counts
    go stale, and every other algorithm keeps exact counts, which the
    counting algorithms' deltas need.
    Like rule changes, a switch is not WAL-logged: on a durable manager it
    folds the log into a fresh snapshot, so every record in any log tail
    was appended under the algorithm the snapshot was taken under. *)
let set_algorithm (t : t) (algorithm : algorithm) : unit =
  if algorithm <> t.algorithm then begin
    require algorithm (program t) (semantics t);
    let leaves_dred = t.algorithm = Dred in
    t.algorithm <- algorithm;
    (* a count-exact resolution inherits explicit DRed's stale counts *)
    if leaves_dred && counted algorithm (program t) then rederive t
    else if t.incremental_aggregates then register_agg_indexes t;
    resnapshot t
  end

(** Audit: recompute every view from scratch and compare with the
    maintained materializations.  [Ok ()] when they agree (counts included
    under every resolution but explicit DRed, sets under it). *)
let audit (t : t) : (unit, string) result =
  let fresh = Database.copy t.db in
  evaluate t.algorithm fresh;
  let compare_counts = counted t.algorithm (program t) in
  let bad =
    List.filter_map
      (fun p ->
        let a = Database.relation t.db p and b = Database.relation fresh p in
        let same =
          if compare_counts then Relation.equal_counted a b
          else Relation.equal_sets a b
        in
        if same then None
        else
          Some
            (Printf.sprintf "%s: maintained %s <> recomputed %s" p
               (Relation.to_string a) (Relation.to_string b)))
      (Program.derived_preds (program t))
  in
  match bad with [] -> Ok () | msgs -> Error (String.concat "\n" msgs)

let pp ppf t = Database.pp ppf t.db

(* ------------------------------------------------------------------ *)
(* Provenance & lineage                                                 *)
(* ------------------------------------------------------------------ *)

(** Switch lineage capture on ({!Ivm_prov.Prov}).  The store is
    process-global: with several managers in one process, enable it on
    only one. *)
let enable_provenance (_t : t) : unit = Ivm_prov.Prov.set_enabled true

(** Switch lineage capture off and clear the store. *)
let disable_provenance (_t : t) : unit = Ivm_prov.Prov.set_enabled false

let provenance_enabled (_t : t) : bool = Ivm_prov.Prov.enabled ()

(** Database-access closures for {!Ivm_prov.Prov_query} — every closure
    rereads [t.db], so the record survives rule changes.  The monitor's
    [/why] runs these beside {!apply}, so [probe] never builds an index
    ({!Relation.probe_existing}). *)
let provenance_access (t : t) : Ivm_prov.Prov_query.db_access =
  let prog () = Database.program t.db in
  {
    Ivm_prov.Prov_query.rules_for = (fun p -> Program.rules_for (prog ()) p);
    is_base = (fun p -> Program.is_base (prog ()) p);
    known_pred = (fun p -> Program.mem_pred (prog ()) p);
    holds = (fun p tup -> Relation.mem (Database.relation t.db p) tup);
    count = (fun p tup -> Relation.count (Database.relation t.db p) tup);
    probe =
      (fun p bound f ->
        let cols = Array.of_list (List.map fst bound) in
        let key = Tuple.of_list (List.map snd bound) in
        Relation.probe_existing (Database.relation t.db p) cols key f);
    mult_for = (fun p -> Database.mult_for t.db p);
  }

(** Parse ["p(v1, …)"] (trailing period optional) as one ground fact. *)
let parse_fact (txt : string) : (string * Tuple.t, string) result =
  let txt = String.trim txt in
  let txt =
    if String.length txt > 0 && txt.[String.length txt - 1] = '.' then txt
    else txt ^ "."
  in
  match Parser.split (Parser.parse_program txt) with
  | [], [ (p, vals) ] -> Ok (p, Tuple.of_list vals)
  | _ -> Error "expected a single ground fact, e.g. tc(1, 3)"
  | exception Parser.Parse_error msg -> Error msg

(** One-stop EXPLAIN for the monitor's [/why] endpoint: parse the fact,
    then bundle [why] (when present) or [why not] (when absent) with its
    [lineage] into one JSON document. *)
let explain_json (t : t) (q : string) : (Ivm_obs.Json.t, string) result =
  let module Json = Ivm_obs.Json in
  let module Pq = Ivm_prov.Prov_query in
  match parse_fact q with
  | Error e -> Error e
  | Ok (pred, tup) ->
    let access = provenance_access t in
    if not (access.Pq.known_pred pred) then
      Error (Printf.sprintf "unknown predicate %s" pred)
    else begin
      let present = access.Pq.holds pred tup in
      Ok
        (Json.Obj
           [
             ("fact", Json.Str (Pq.fact_to_string pred tup));
             ("present", Json.Bool present);
             ("count", Json.int (access.Pq.count pred tup));
             ("provenance_enabled", Json.Bool (Ivm_prov.Prov.enabled ()));
             ( (if present then "why" else "whynot"),
               if present then Pq.why_json (Pq.why access pred tup)
               else Pq.whynot_json (Pq.whynot access pred tup) );
             ("lineage", Pq.lineage_json (Pq.lineage access pred tup));
           ])
    end

(** The manager's state as JSON — the monitor's [/statusz] body (minus
    process-level fields like uptime, which the server adds): algorithm,
    semantics, domain count, per-view tuple counts, durable-store
    status, and the last batch's wall time.

    The monitor calls this from its accept domain, possibly while
    {!apply} is mutating relations on another.  The values are {e racy
    point-in-time reads} — the same contract as a [/metrics] scrape:
    cardinals taken mid-batch can be mutually inconsistent (each read is
    an O(1) size-field load, never a traversal, so a concurrent resize
    cannot misreport beyond staleness).  Callers wanting a consistent
    snapshot must serialize with [apply] themselves, as [apply] is
    single-writer by design and takes no lock. *)
let status_json (t : t) : Ivm_obs.Json.t =
  let module Json = Ivm_obs.Json in
  let program = program t in
  let views =
    List.map
      (fun p ->
        ( p,
          Json.Obj
            [
              ("stratum", Json.int (Program.stratum program p));
              ("tuples", Json.int (Relation.cardinal (relation t p)));
            ] ))
      (Program.derived_in_stratum_order program)
  in
  let bases =
    List.map
      (fun p -> (p, Json.int (Relation.cardinal (relation t p))))
      (List.sort String.compare (Program.base_preds program))
  in
  let store =
    match store_status t with
    | None -> Json.Null
    | Some s ->
      Json.Obj
        [
          ("dir", Json.Str s.Ivm_store.Store.dir);
          ("seq", Json.int s.Ivm_store.Store.seq);
          ("snapshot_seq", Json.int s.Ivm_store.Store.snapshot_seq);
          ("snapshot_bytes", Json.int s.Ivm_store.Store.snapshot_bytes);
          ("wal_records", Json.int s.Ivm_store.Store.wal_records);
          ("wal_bytes", Json.int s.Ivm_store.Store.wal_bytes);
        ]
  in
  Json.Obj
    [
      ("algorithm", Json.Str (algorithm_name (resolve t)));
      ("semantics", Json.Str (semantics_name (semantics t)));
      ("domains", Json.int (Ivm_par.domains ()));
      ("views", Json.Obj views);
      ("base_relations", Json.Obj bases);
      ("store", store);
      ("provenance", Ivm_prov.Prov.status_json ());
      ( "last_batch_ns",
        Json.int (int_of_float (Metrics.gauge_value last_batch_g)) );
      ( "last_batch",
        match Ivm_obs.Attribution.last () with
        | None -> Json.Null
        | Some b -> Ivm_obs.Attribution.batch_json b );
    ]
