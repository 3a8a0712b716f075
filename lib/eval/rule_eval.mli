(** The join engine: evaluates one compiled rule body against
    caller-chosen relation views and emits head tuples with derivation
    counts.

    The caller decides, per body literal, what relation stands behind it —
    the whole trick of the paper's rewrites.  A delta rule
    [Δ(p) :- s1ν & … & Δ(si) & … & sn] (Definition 4.1) passes the new
    view before position [i], the delta relation at [i] (the {e seed}),
    and the old view after; initial materialization passes stored
    relations everywhere.

    Counts multiply across subgoals (Section 3); the per-subgoal count
    transform implements the set-semantics clamp of Section 5.1.

    Join order: seed first (the delta is the most restrictive input,
    Section 6.1), then enumerable literals greedily by bound argument
    positions (ties to the smaller relation); membership filters
    ([Filter_absent], [Filter_present]), comparisons and equality binders
    run as soon as their variables are bound.  A membership filter is
    never a join driver, even when its view is the smallest input. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation_view = Ivm_relation.Relation_view

type count_xform = int -> int

val identity_count : count_xform

(** The set-semantics clamp: a true tuple counts once. *)
val set_count : count_xform

type subgoal_input =
  | Enumerate of Relation_view.t * count_xform
      (** join against this relation (positive atoms, grouped relations,
          or a precomputed [Δ(¬Q)] for a negated delta position) *)
  | Filter_absent of Relation_view.t
      (** negated subgoal in a non-delta position: succeeds, with count 1,
          when the bound tuple does not hold in the view *)
  | Filter_present of Relation_view.t
      (** membership-only positive subgoal: succeeds, with count 1, when
          the bound tuple holds in the view.  Placed as soon as its
          variables are bound and never enumerated (a seed at its
          position is enumerated as usual); an empty view short-circuits
          the evaluation *)

exception Plan_error of string

(** {2 Bindings}

    A binding is a plain [Value.t array] indexed by slot; a box no tuple
    or constant shares marks a slot not yet bound. *)

(** [binding n]: [n] unbound slots. *)
val binding : int -> Value.t array

(** Whether a slot of the binding holds a value. *)
val is_bound : Value.t array -> Compile.slot -> bool

(** Value of a compiled expression under a binding.
    @raise Plan_error on an unbound variable. *)
val expr_value : Value.t array -> Compile.cexpr -> Value.t

val cmp_holds : Ivm_datalog.Ast.cmp_op -> Value.t -> Value.t -> bool

(** One column of a compiled match: check it against a constant, check
    it against a slot already bound, or bind its slot. *)
type mop = Mconst of int * Value.t | Mslot of int * Compile.slot | Mbind of int * Compile.slot

(** [compile_match ~bound args] compiles the pattern [args] for matching
    when exactly the slots satisfying [bound] are bound: the first
    occurrence of any other variable binds it, later ones check it. *)
val compile_match : bound:(Compile.slot -> bool) -> Compile.cterm array -> mop array

(** [matches binding ops tup] runs the compiled match, binding slots in
    place; it allocates nothing.  A failed match may leave some of its
    slots bound; matching the same pattern again rebinds them. *)
val matches : Value.t array -> mop array -> Tuple.t -> bool

(** Evaluate the body of a compiled rule, calling [emit head count] once
    per derivation (the caller accumulates with [⊎]).  [seed] is the body
    literal enumerated first — the delta position.  Empty enumerable
    inputs short-circuit the evaluation.
    @raise Plan_error when a literal cannot be planned (unsafe rule, or a
    [Filter_absent] / [Filter_present] literal whose variables no other
    literal binds). *)
val eval :
  ?seed:int ->
  inputs:(int -> subgoal_input) ->
  emit:(Tuple.t -> int -> unit) ->
  Compile.t ->
  unit
