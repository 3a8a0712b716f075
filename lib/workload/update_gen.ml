(** Update-stream generators: draw insertions, deletions and updates
    against a live database's base relations, always valid (deletions pick
    stored tuples, insertions avoid duplicates under set semantics). *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Database = Ivm_eval.Database
module Program = Ivm_datalog.Program
module Changes = Ivm.Changes

(** [deletions rng db pred k] — a change set deleting [k] random stored
    tuples of [pred] (fewer if the relation is smaller). *)
let deletions rng (db : Database.t) pred k : Changes.t =
  let stored = Database.relation db pred in
  (* Sorted candidates: victim selection must depend only on the PRNG and
     the relation's contents, never on hash-table iteration order — the
     perf-regression harness compares final states across kernel versions. *)
  let all =
    List.sort Tuple.compare
      (Relation.fold (fun tup _ acc -> tup :: acc) stored [])
  in
  let victims = Prng.sample rng k all in
  Changes.deletions (Database.program db) pred victims

(** [edge_insertions rng db pred ~nodes k] — [k] random 2-column edges
    over integer nodes [0 .. nodes - 1], avoiding self-loops and stored
    tuples but not each other: a batch can repeat an edge. *)
let edge_insertions rng (db : Database.t) pred ~nodes k : Changes.t =
  let stored = Database.relation db pred in
  let rec draw k acc =
    if k = 0 then acc
    else
      let a = Prng.int rng nodes and b = Prng.int rng nodes in
      let t = Tuple.make [| Value.Int a; Value.Int b |] in
      if a = b || Relation.mem stored t then draw k acc
      else draw (k - 1) (t :: acc)
  in
  Changes.insertions (Database.program db) pred (draw k [])

(** A mixed batch: [dels] deletions of stored tuples and [ins] edge
    insertions (see the interface: possibly fewer distinct) on the same
    predicate. *)
let mixed rng db pred ~nodes ~dels ~ins : Changes.t =
  Changes.merge (deletions rng db pred dels) (edge_insertions rng db pred ~nodes ins)

(** Random ground fact over integer columns — for property tests on
    arbitrary arities. *)
let random_tuple rng ~arity ~domain =
  Tuple.make (Array.init arity (fun _ -> Value.Int (Prng.int rng domain)))
