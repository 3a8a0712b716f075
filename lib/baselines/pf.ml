(** The Propagation/Filtration (PF) algorithm of Harrison & Dietrich
    [HD92], reconstructed from the paper's Section 2 characterization:

    "Where applicable, the PF (Propagation/Filtration) algorithm computes
    changes in one derived predicate due to changes in one base predicate,
    iterating over all derived and base predicates to complete the view
    maintenance.  An attempt to recompute the deleted tuples is made for
    each small change in each derived relation.  ...  The PF algorithm thus
    fragments computation, can rederive changed and deleted tuples again
    and again, and can be worse than our rederivation algorithm by an
    order of magnitude."

    We realize exactly that fragmentation: the change set is split into
    minimal batches — per base predicate, and at [Per_tuple] granularity
    per individual tuple — and each batch is propagated through {e all}
    derived predicates, stratum by stratum, with a deletion/rederivation
    pass per batch.  Each pass reuses the (correct) delete-and-rederive
    machinery, so PF computes the same final state as DRed while paying
    the repeated rederivations the paper describes; benches E6 compares
    the derivation counts. *)

module Relation = Ivm_relation.Relation
module Database = Ivm_eval.Database
module Changes = Ivm.Changes
module Dred = Ivm.Dred

type granularity =
  | Per_predicate  (** one propagation pass per changed base predicate *)
  | Per_tuple
      (** one pass per changed tuple — the "each small change" reading *)

type stats = {
  passes : int;  (** propagation passes performed *)
  overdeleted : int;  (** Σ sizes of per-pass deletion overestimates *)
  rederived : int;  (** Σ tuples rederived across passes *)
}

(** Apply [changes] with PF-style fragmented propagation.  Set semantics
    only (it is a deletion/rederivation algorithm, like DRed). *)
let maintain ?(granularity = Per_tuple) (db : Database.t) (changes : Changes.t) :
    stats =
  let normalized = Changes.normalize_base db changes in
  let batches =
    match granularity with
    | Per_predicate -> List.map (fun (pred, delta) -> [ (pred, delta) ]) normalized
    | Per_tuple ->
      List.concat_map
        (fun (pred, delta) ->
          (* deletions first, then insertions, one tuple per batch *)
          let deletions =
            Relation.fold
              (fun tup c acc ->
                if c < 0 then
                  [ (pred, Relation.of_list (Relation.arity delta) [ (tup, c) ]) ]
                  :: acc
                else acc)
              delta []
          in
          let insertions =
            Relation.fold
              (fun tup c acc ->
                if c > 0 then
                  [ (pred, Relation.of_list (Relation.arity delta) [ (tup, c) ]) ]
                  :: acc
                else acc)
              delta []
          in
          deletions @ insertions)
        normalized
  in
  List.fold_left
    (fun acc batch ->
      let report = Dred.maintain db batch in
      {
        passes = acc.passes + 1;
        overdeleted =
          acc.overdeleted
          + List.fold_left (fun s (_, n) -> s + n) 0 report.Ivm.Delta.overdeleted;
        rederived =
          acc.rederived
          + List.fold_left (fun s (_, n) -> s + n) 0 report.Ivm.Delta.rederived;
      })
    { passes = 0; overdeleted = 0; rederived = 0 }
    batches
