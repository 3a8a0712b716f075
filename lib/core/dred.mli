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
    same sets, with exact counts. *)

module Relation = Ivm_relation.Relation
module Database = Ivm_eval.Database

exception Duplicate_semantics_unsupported

type report = {
  base_deltas : (string * Relation.t) list;
  view_deltas : (string * Relation.t) list;
      (** per derived predicate: ±1 set transitions actually applied *)
  overdeleted : (string * int) list;
      (** per predicate: size of the step-1 overestimate *)
  rederived : (string * int) list;
      (** per predicate: tuples put back in step 2 *)
}

(** Which DRed {!maintain} runs. *)
type mode =
  | Paper  (** the paper's three phases; recursive views keep count 1 *)
  | Counted
      (** counted DRed: one-step derivation counts, which must be exact
          on entry ({!Ivm_eval.Seminaive.evaluate} [~counts:true]
          materializes them) *)
  | Auto
      (** counted DRed, each unit first applying {!Delta.choose}
          ([View_manager]'s [Auto]): a unit whose input delta is large is
          re-evaluated ({!Delta.reevaluate}) instead, with the same
          one-step counts and none of the three phases *)

(** Apply base-relation changes with DRed ([mode], default [Paper]); commits to the stored relations
    through {!Delta.commit}.  [?track] is handed every committed delta
    whole, at commit time ({!Changes.absorb}).  No count can go
    negative: within its unit, an overdeleted tuple's delta is set to
    −stored once, gets +stored back on putback, and gets +1 only while
    the tuple does not hold.
    @raise Duplicate_semantics_unsupported under duplicate semantics
    (DRed is a set-semantics algorithm, Section 7);
    @raise Changes.Invalid_changes on malformed change sets. *)
val maintain :
  ?mode:mode ->
  ?track:Changes.collector ->
  Database.t ->
  Changes.t ->
  report
