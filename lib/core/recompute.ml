(** Full recomputation — the baseline the paper's introduction argues
    against: "Recomputing the view from scratch is too wasteful in most
    cases" (Section 1), though not always — if an entire base relation is
    deleted, recomputation can win (the "heuristic of inertia" crossover,
    exercised by bench E9). *)

module Relation = Ivm_relation.Relation
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Seminaive = Ivm_eval.Seminaive
module Metrics = Ivm_obs.Metrics

let batches_c =
  Metrics.counter ~labels:[ ("algorithm", "recompute") ] "ivm_maintain_batches_total"

(** Materialize every view from the base relations with exact counts:
    semi-naive evaluation with one-step derivation counts through
    recursion (no extra pass), except for recursive programs under
    duplicate semantics, whose multiset only counting through recursion
    computes (Section 8). *)
let evaluate (db : Database.t) : unit =
  if
    Database.semantics db = Database.Duplicate_semantics
    && not (Program.nonrecursive (Database.program db))
  then Recursive_counting.evaluate db
  else Seminaive.evaluate ~counts:true db

(** Add normalized base changes to the stored base relations; the views
    are left as they are. *)
let apply_base (db : Database.t) (normalized : Changes.t) : unit =
  List.iter
    (fun (pred, delta) ->
      (* the base relation changes outside delta-tracked maintenance *)
      Database.invalidate_agg_indexes db pred;
      let stored = Database.relation db pred in
      Relation.iter (fun tup c -> Relation.add stored tup c) delta)
    normalized

(** Apply the base changes, then rebuild every view with {!evaluate}. *)
let maintain (db : Database.t) (changes : Changes.t) : unit =
  Metrics.inc batches_c;
  Ivm_obs.Trace.span "recompute.maintain" (fun () ->
      apply_base db (Changes.normalize_base db changes);
      evaluate db)
