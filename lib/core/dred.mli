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
    the updated database. *)

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

(** Apply base-relation changes with DRed; commits to the stored relations
    through {!Delta.commit}.  [?record pred tup c] observes every applied
    per-tuple stored-count difference at commit time.  No count can go
    negative: within its unit, an overdeleted tuple's delta is set to
    −stored once, gets +stored back on putback, and gets +1 only while
    the tuple does not hold.
    With [~auto:true] ([View_manager]'s [Auto]; default [false]) each
    unit applies {!Delta.choose} first and, when its input delta is
    large, is re-evaluated ({!Delta.reevaluate}) instead: same stored
    counts, none of the three phases.
    @raise Duplicate_semantics_unsupported under duplicate semantics
    (DRed is a set-semantics algorithm, Section 7);
    @raise Changes.Invalid_changes on malformed change sets. *)
val maintain :
  ?auto:bool ->
  ?record:(string -> Ivm_relation.Tuple.t -> int -> unit) ->
  Database.t ->
  Changes.t ->
  report
