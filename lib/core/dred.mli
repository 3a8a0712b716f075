(** DRed — Delete and Rederive, Section 7 of the paper: incremental
    maintenance of (general) recursive views with stratified negation and
    aggregation, under set semantics.

    Derived predicates are processed unit by unit (one SCC of mutually
    recursive predicates at a time, in dependency order).  Per unit:

    + {b delete} an overestimate — semi-naive evaluation of the δ⁻-rules
      against the {e old} relations: a tuple is overdeleted if {e any}
      derivation of it uses a deleted tuple (or a tuple newly true under a
      negated subgoal, or a vanished group tuple of a GROUPBY subgoal);
    + {b rederive} — every overdeleted tuple with an alternative
      derivation in the new database is put back
      ([δ⁺(p) :- δ⁻(p) & s1ν & … & snν]), semi-naively within the unit;
    + {b insert} — semi-naive propagation of the insertions over the new
      relations.

    Theorem 7.1: the result contains a tuple iff it has a derivation in
    the updated database.

    {b Counted DRed} (Hu, Motik & Horrocks, arXiv:1711.03987) keeps each
    stored tuple's one-step derivation count — the rule instantiations
    whose body holds, lower strata counted once — and drops the backward
    step: the delete phase decrements the head of each lost derivation
    exactly once, rederivation puts back every overdeleted tuple whose
    count stayed positive without evaluating a rule, and the insert phase
    counts each new derivation once, seeded by the put-backs and the
    insertions.  It overdeletes the same tuples as DRed and leaves the
    same sets, with exact counts.  It runs on SCCs only: a nonrecursive
    unit's one-step counts are Counting's (lower strata counted once), so
    there Counting's delta rules maintain them, overdeleting nothing. *)

module Database = Ivm_eval.Database

exception Duplicate_semantics_unsupported

(** Which DRed {!maintain} runs. *)
type mode =
  | Paper  (** the paper's three phases on every unit; recursive views keep count 1 *)
  | Counted
      (** counted DRed on each SCC and Counting's delta rules on each
          nonrecursive unit: one-step derivation counts, which must be
          exact on entry ({!Ivm_eval.Seminaive.evaluate} [~counts:true]
          materializes them) *)

(** Whether counted DRed keeps [lag] (the unit's live delta one round
    behind) for the recursive unit [unit_preds] of [db]'s program: only
    when one of the unit's rules has a unit atom after a literal that is
    not a comparison — right-linear or nonlinear closure, not left-linear
    closure. *)
val reads_lag : Database.t -> string list -> bool

(** A mode as the driver runs it: {!Delta.Phases} on every unit under
    [Paper]; under [Counted] on an SCC, with {!Delta.Derive} on a
    nonrecursive unit. *)
val algorithm : mode -> Delta.algorithm

(** Apply base-relation changes with DRed ([mode], default [Paper]): one
    {!Delta.maintain} call, which commits to the stored relations and
    reports the overestimate and put-back sizes beside the deltas.
    [?track] is handed every committed delta whole, at commit time
    ({!Changes.absorb}).  No count can go negative: within its unit, an
    overdeleted tuple's delta is set to −stored once, gets +stored back
    on putback, and gets +1 only while the tuple does not hold.
    @raise Duplicate_semantics_unsupported under duplicate semantics
    (DRed is a set-semantics algorithm, Section 7);
    @raise Changes.Invalid_changes on malformed change sets. *)
val maintain :
  ?mode:mode ->
  ?track:Changes.collector ->
  Database.t ->
  Changes.t ->
  Delta.report
