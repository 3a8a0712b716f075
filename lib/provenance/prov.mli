(** Derivation provenance and batch lineage capture.

    The counting algorithm of the paper maintains, per derived tuple, the
    {e number} of derivations; this module generalizes the payload and
    records {e which} ones — a bounded set of {e supports}, each a
    (rule, immediate subgoal tuples) pair, plus a per-tuple lineage of
    batch transitions (first derived / last deleted).  Capture is opt-in
    and process-global: the rule evaluator calls {!record} at every head
    emission, and the commit loops of the maintenance algorithms call
    {!on_transition} when a tuple's stored count crosses zero.

    {b Cost discipline.}  When capture is off, every hook reduces to one
    atomic load and a predictable branch — the hooks live in the hot path
    permanently, so {!capturing} must stay that cheap.  When capture is
    on, {!record} takes a single global mutex (it is called from worker
    domains during parallel rule evaluation).

    {b Incremental correctness.}  The delta rules of Definition 4.1
    partition the derivations gained or lost by a batch so that each is
    enumerated exactly once; applying a support add (positive emission
    count, or {!set_mode}[ Add]) or remove (negative count, or
    [Remove] — DRed's deletion phase) per emission therefore keeps the
    stored supports an exact bounded subset of the current derivations.
    DRed's delete/rederive phases can enumerate a lost derivation more
    than once (once per changed subgoal); removals with no matching
    support are counted and ignored, and the rederivation phase restores
    supports for tuples that were over-deleted and put back.

    {b Bounds.}  At most {!max_supports} supports per tuple (default 8,
    override with [IVM_PROV_MAX_SUPPORTS]); overflowing supports are
    dropped and the tuple marked truncated.  Per-tuple lineage keeps the
    newest 16 events; the batch ring keeps the newest 64 batches. *)

module Tuple = Ivm_relation.Tuple

(** Ambient capture mode, set {e sequentially} by the maintenance
    algorithm before fanning rule evaluation out to worker domains:
    [Add] treats an emission of count [c] as gaining (c > 0) or losing
    (c < 0) a derivation; [Remove] — DRed's deletion phase, where
    emissions estimate {e lost} derivations regardless of sign — always
    removes. *)
type mode = Add | Remove

(** {1 Capture state} *)

(** Capture has been switched on with {!set_enabled}. *)
val enabled : unit -> bool

(** Capture is on {e and} not suspended — the hooks' fast guard. *)
val capturing : unit -> bool

(** Switching capture on or off resets the store either way: supports
    are only correct if every derivation since the reset was observed. *)
val set_enabled : bool -> unit

(** [with_suspended f] runs [f] with capture suspended (nestable) — used
    around evaluations that must not pollute the store: audits over
    database copies, ad-hoc queries, rule-redefinition maintenance. *)
val with_suspended : (unit -> 'a) -> 'a

val set_mode : mode -> unit

(** {1 Hooks (called by the evaluator and the algorithms)} *)

(** [record ~pred ~rule ~head ~count ~subgoals] — one derivation of
    [head] by [rule] from the listed positive subgoal tuples, in body
    order.  No-op unless {!capturing}; adds or removes a support per the
    ambient {!mode} and the sign of [count].  Pseudo-predicates (names
    starting with ['$']) are dropped: as head they suppress the record,
    as subgoals they are elided (DRed's overestimate markers). *)
val record :
  pred:string ->
  rule:string ->
  head:Tuple.t ->
  count:int ->
  subgoals:(string * Tuple.t) list ->
  unit

(** Called once per maintenance batch (when capturing); advances the
    batch sequence number and the batch ring. *)
val batch_begin : algorithm:string -> unit

(** The current batch sequence number (0 before any batch). *)
val current_batch : unit -> int

(** [on_transition ~pred t k] — [t]'s stored count crossed zero during
    commit.  [`Deleted] purges the tuple's supports (they describe
    derivations that no longer exist) but keeps its lineage. *)
val on_transition : pred:string -> Tuple.t -> [ `Derived | `Deleted ] -> unit

(** Drop every stored support (lineage survives) — called when the rule
    set changes or a recompute invalidates them wholesale; the caller is
    expected to re-bootstrap via [Seminaive.replay_derivations]. *)
val truncate_supports : reason:string -> unit

(** Clear the whole store (supports, lineage, batch ring). *)
val reset : unit -> unit

(** {1 Queries} *)

type support = {
  rule : string;  (** pretty-printed source rule *)
  subgoals : (string * Tuple.t) array;  (** positive subgoals, body order *)
  mult : int;  (** derivations sharing this instantiation (duplicate
                   semantics); 1 under set semantics *)
}

(** Supports currently stored for a tuple, in a deterministic order.
    A bounded subset of the tuple's derivations — non-empty for any
    present derived tuple captured since the last reset/truncation. *)
val supports_of : pred:string -> Tuple.t -> support list

(** The per-tuple support bound dropped at least one support. *)
val supports_truncated : pred:string -> Tuple.t -> bool

type event = { batch : int; kind : [ `Derived | `Deleted ] }

type lineage = {
  first_derived : int option;  (** batch that first derived the tuple *)
  last_deleted : int option;  (** most recent batch that deleted it *)
  events : event list;  (** newest first, bounded *)
}

(** [None] when nothing was ever recorded for the tuple (e.g. it was
    derived before capture was enabled and never transitioned since). *)
val lineage_of : pred:string -> Tuple.t -> lineage option

type batch_info = { seq : int; algorithm : string }

(** The batch ring, newest first. *)
val batches : unit -> batch_info list

(** {1 Accounting} *)

val max_supports : unit -> int

(** Override the per-tuple support bound (tests). *)
val set_max_supports : int -> unit

val supports_stored : unit -> int
val tuples_tracked : unit -> int

(** Rough store footprint in bytes (word-count model, not measured). *)
val bytes_estimate : unit -> int

(** Subsystem status for [/statusz]: enabled flag, store sizes,
    truncation and unmatched-removal counters. *)
val status_json : unit -> Ivm_obs.Json.t
