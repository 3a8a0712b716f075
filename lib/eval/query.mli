(** Ad-hoc conjunctive queries over the materialized database — one-shot
    "persistent queries" (§1 of the paper): every view is materialized and
    exact, so a query is a single join over stored relations. *)

module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation

type result = {
  columns : string list;  (** answer variables, first-occurrence order *)
  rows : Relation.t;  (** one tuple per answer, with derivation counts *)
}

(** Run a query body against the stored relations.
    @raise Ivm_datalog.Safety.Unsafe on unsafe bodies;
    @raise Ivm_datalog.Program.Program_error on unknown predicates. *)
val run : Database.t -> Ivm_datalog.Ast.literal list -> result

(** Run a full query rule: the head's argument expressions are the output
    columns (projection, computed columns), [columns] their display names.
    @raise Invalid_argument on a column/argument count mismatch. *)
val run_rule : Database.t -> Ivm_datalog.Ast.rule -> columns:string list -> result

(** Parse and run ["hop(a, X), link(X, Y)"]. *)
val run_text : Database.t -> string -> result

(** Boolean (ground) query: has at least one derivation. *)
val holds : Database.t -> string -> bool

val pp : Format.formatter -> result -> unit
