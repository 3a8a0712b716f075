(** Global work counters: five registered {!Ivm_obs.Metrics} counters.

    The paper's optimality and fragmentation claims (Theorem 4.1; the PF
    comparison of Section 2) concern {e how many derivations} an algorithm
    computes, not just wall-clock time.  The evaluator bumps these
    counters; reset them around the region you measure.  They are the
    registered metrics [ivm_derivations_total],
    [ivm_tuples_scanned_total], [ivm_probes_total],
    [ivm_rule_applications_total] and [ivm_index_builds_total] (the last
    bumped by [Ivm_relation.Relation] itself), so they are exact across
    domains and every registry dump shows them as they stand.

    {b Snapshot semantics.}  Counters are monotone between {!reset}s.
    Nested {!measure} calls attribute inner work to both regions — each
    answers "how much work happened while [f] ran".  {!since} clamps at
    zero, so a snapshot taken before a [reset] yields zeros rather than
    negative values. *)

(** The registered handles; the evaluator bumps them with
    {!Ivm_obs.Metrics.inc}. *)

val derivations_c : Ivm_obs.Metrics.counter
val tuples_scanned_c : Ivm_obs.Metrics.counter
val probes_c : Ivm_obs.Metrics.counter
val rule_applications_c : Ivm_obs.Metrics.counter
val index_builds_c : Ivm_obs.Metrics.counter

(** Zero the five work counters; other registered metrics keep their
    values.  Snapshots taken earlier become stale. *)
val reset : unit -> unit

(** Tuples emitted by rule bodies — one per successful derivation. *)
val derivations : unit -> int

(** Tuples read while scanning or probing relations. *)
val tuples_scanned : unit -> int

(** Index probe operations. *)
val probes : unit -> int

(** Rule (re-)evaluations started. *)
val rule_applications : unit -> int

(** Demand-built relation indexes. *)
val index_builds : unit -> int

type snapshot = {
  snap_derivations : int;
  snap_tuples_scanned : int;
  snap_probes : int;
  snap_rule_applications : int;
  snap_index_builds : int;
}

val snapshot : unit -> snapshot

(** Work done since [earlier]; each component clamps at zero. *)
val since : snapshot -> snapshot

(** The {e current domain's} share of the counters
    ({!Ivm_obs.Metrics.local_value}).  With {!local_since} this measures
    exactly the work this domain performed in a region, immune to
    concurrent bumps from other domains — what per-rule attribution
    needs under parallel fan-out. *)
val local_snapshot : unit -> snapshot

(** This domain's work since an earlier {!local_snapshot} taken on the
    same domain; clamps at zero. *)
val local_since : snapshot -> snapshot

val pp_snapshot : Format.formatter -> snapshot -> unit

(** Run [f]; return its result and the work it performed. *)
val measure : (unit -> 'a) -> 'a * snapshot
