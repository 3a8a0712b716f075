(** Initial bottom-up materialization: one naive pass per nonrecursive
    predicate (strata are evaluated in order, so a single evaluation of
    each rule suffices), semi-naive iteration [Ull89] inside recursive
    components.

    Nonrecursive predicates store derivation counts (full multiplicities
    under duplicate semantics, the Section 5.1 convention under set
    semantics); recursive predicates are materialized as sets —
    duplicate counting through recursion may not terminate (Section 8,
    see [Ivm.Recursive_counting] for the [GKM92] extension) — with count
    1, or with [~counts:true] with each tuple's one-step derivation count:
    the rule instantiations whose body holds, lower strata counted once
    (Section 5.1's clamp applied inside the unit). *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Program = Ivm_datalog.Program

exception Recursive_duplicates of string

(** Per-round cache of grouped relations, keyed by GROUPBY-spec signature
    and a caller-chosen version tag. *)
module Agg_cache : sig
  type t

  val create : unit -> t

  val grouped :
    t ->
    version:string ->
    mult:(int -> int) ->
    Relation_view.t ->
    Compile.agg_spec ->
    Relation.t
end

(** Subgoal inputs resolving every predicate through [resolve]; GROUPBY
    subgoals are computed through [cache] under [version]. *)
val make_inputs :
  resolve:(string -> Relation_view.t) ->
  mult_for:(string -> int -> int) ->
  cache:Agg_cache.t ->
  version:string ->
  Compile.t ->
  int ->
  Rule_eval.subgoal_input

(** Evaluate all rules of one nonrecursive predicate against the current
    database state, or against the relations [resolve] returns; returns
    its materialization. *)
val eval_nonrecursive :
  ?resolve:(string -> Relation_view.t) ->
  Database.t -> cache:Agg_cache.t -> string -> Relation.t

(** Semi-naive fixpoint for one recursive unit (set semantics); relations
    outside the unit are read from the database, or through [resolve].
    Counts are 1, or one-step derivation counts with [~counts:true].
    @raise Recursive_duplicates under duplicate semantics. *)
val eval_recursive_unit :
  ?resolve:(string -> Relation_view.t) ->
  ?counts:bool ->
  Database.t -> cache:Agg_cache.t -> string list -> (string * Relation.t) list

(** Materialize every derived predicate from the base relations
    (overwrites previous materializations); [~counts] as for
    {!eval_recursive_unit}. *)
val evaluate : ?counts:bool -> Database.t -> unit
