(** Full recomputation — the baseline the paper's introduction argues
    against ("recomputing the view from scratch is too wasteful in most
    cases", §1), except past the inertia crossover (bench E9).  The
    manager's [Recompute] algorithm and every test's reference run this
    one implementation. *)

module Database = Ivm_eval.Database

(** Materialize every view from the base relations with exact counts:
    one-step derivation counts through recursion under set semantics
    ({!Ivm_eval.Seminaive.evaluate} [~counts:true]); recursive programs
    under duplicate semantics go through {!Recursive_counting.evaluate}. *)
val evaluate : Database.t -> unit

(** Add already-normalized base changes ({!Changes.normalize_base}) to
    the stored base relations, invalidating aggregate indexes over the
    changed relations; the views are not touched. *)
val apply_base : Database.t -> Changes.t -> unit

(** Apply the base changes, invalidating aggregate indexes over the
    changed relations, then rebuild every view with {!evaluate}. *)
val maintain : Database.t -> Changes.t -> unit
