(** Update-stream generators: always-valid change sets against a live
    database's base relations (deletions pick stored tuples; insertions
    avoid stored tuples). *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Database = Ivm_eval.Database
module Changes = Ivm.Changes

(** Delete [k] random stored tuples (fewer if the relation is smaller). *)
val deletions : Prng.t -> Database.t -> string -> int -> Changes.t

(** Insert [k] random 2-column edges over nodes [0 .. nodes - 1], each
    drawn until it is neither a self-loop nor already stored.  Draws are
    not checked against each other, so the batch can repeat an edge and
    hold fewer than [k] distinct ones. *)
val edge_insertions :
  Prng.t -> Database.t -> string -> nodes:int -> int -> Changes.t

(** [dels] deletions ⊎ [ins] {!edge_insertions} on one predicate. *)
val mixed :
  Prng.t -> Database.t -> string -> nodes:int -> dels:int -> ins:int -> Changes.t

(** Random ground tuple over integer columns. *)
val random_tuple : Prng.t -> arity:int -> domain:int -> Tuple.t
