(** Change sets: the [Δ] notation of Section 3.  A change set maps
    predicates to delta relations — insertions with positive counts,
    deletions with negative counts.  Updates are modelled, as in the paper,
    as a deletion plus an insertion of the modified tuple. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database

type t = (string * Relation.t) list

exception Invalid_changes of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid_changes s)) fmt

(** Build a change set from per-predicate [(tuple, count)] lists. *)
let of_list (program : Program.t) (specs : (string * (Tuple.t * int) list) list) : t =
  List.map
    (fun (pred, entries) ->
      let r = Relation.of_list (Program.arity program pred) entries in
      (pred, r))
    specs

let insertions program pred tuples =
  of_list program [ (pred, List.map (fun t -> (t, 1)) tuples) ]

let deletions program pred tuples =
  of_list program [ (pred, List.map (fun t -> (t, -1)) tuples) ]

(** [update program pred ~old_tuple ~new_tuple] — delete + insert. *)
let update program pred ~old_tuple ~new_tuple =
  of_list program [ (pred, [ (old_tuple, -1); (new_tuple, 1) ]) ]

(** Merge change sets with [⊎] per predicate. *)
let merge (a : t) (b : t) : t =
  let tbl = Hashtbl.create 8 in
  let absorb (pred, r) =
    match Hashtbl.find_opt tbl pred with
    | Some acc -> Relation.union_into ~into:acc r
    | None -> Hashtbl.replace tbl pred (Relation.copy r)
  in
  List.iter absorb a;
  List.iter absorb b;
  Hashtbl.fold (fun p r acc -> (p, r) :: acc) tbl []
  |> List.sort (fun (p, _) (q, _) -> String.compare p q)

let is_empty (t : t) = List.for_all (fun (_, r) -> Relation.is_empty r) t

let total_tuples (t : t) =
  List.fold_left (fun acc (_, r) -> acc + Relation.cardinal r) 0 t

(* ---------------- net-change collectors ---------------- *)

(* A collector accumulates the net stored-count changes a maintenance run
   actually commits — base and derived predicates alike — as a change set.
   The maintenance algorithms hand it each relation they commit, whole
   ([absorb]), so the collected set is exact by construction.  A
   predicate's first relation is adopted; a later one merges into a
   private copy made then ([owned]), since the adopted relation was
   returned to the committer's caller.  A run that mutates stored state
   without per-relation deltas (recomputation, rederivation) marks the
   collector incomplete instead. *)
type net = { mutable rel : Relation.t; mutable owned : bool }

type collector = {
  net : (string, net) Hashtbl.t;
  mutable incomplete : bool;
}

let collector () = { net = Hashtbl.create 8; incomplete = false }

let absorb col pred r =
  if not (Relation.is_empty r) then
    match Hashtbl.find_opt col.net pred with
    | None -> Hashtbl.replace col.net pred { rel = r; owned = false }
    | Some n ->
      if not n.owned then begin
        n.rel <- Relation.copy ~with_indexes:false n.rel;
        n.owned <- true
      end;
      Relation.union_into ~into:n.rel r

let mark_incomplete col = col.incomplete <- true
let is_complete col = not col.incomplete

let collected col : t =
  Hashtbl.fold
    (fun p n acc -> if Relation.is_empty n.rel then acc else (p, n.rel) :: acc)
    col.net []
  |> List.sort (fun (p, _) (q, _) -> String.compare p q)

(** Validate a change set against the database and normalize it for the
    database's semantics:

    - every changed predicate must be a base relation of the program;
    - deletions must not exceed stored multiplicities (the paper's standing
      assumption [Γ− ⊆ E], Lemma 4.1);
    - under set semantics, inserting an already-present tuple and deleting
      with multiplicity collapse to ±1 transitions (re-inserting a present
      tuple is dropped).

    [pending], when given, is an overlay of net counts not yet applied to
    [db] (a log tail being folded into one batch): every check then runs
    against the stored count plus the pending one, the state the earlier
    batches leave.  The overlay is only read; the caller folds the result
    into it.

    Returns the normalized change set.
    @raise Invalid_changes on violations. *)
let normalize_base ?pending (db : Database.t) (t : t) : t =
  let program = Database.program db in
  (* Collapse duplicate entries for the same predicate with [⊎] first. *)
  let t = merge t [] in
  List.filter_map
    (fun (pred, delta) ->
      if not (Program.mem_pred program pred) then fail "unknown relation %s" pred;
      if Program.is_derived program pred then
        fail "%s is a derived relation: apply changes to base relations only"
          pred;
      if Relation.arity delta <> Program.arity program pred then
        fail "arity mismatch in changes for %s" pred;
      let stored = Database.relation db pred in
      let overlay =
        Option.bind pending (fun col ->
            Option.map (fun n -> n.rel) (Hashtbl.find_opt col.net pred))
      in
      let out = Relation.create (Relation.arity delta) in
      Relation.iter
        (fun tup c ->
          let in_stored = Relation.find stored tup in
          let in_pending = Option.map (fun r -> Relation.find r tup) overlay in
          let have =
            Relation.slot_count in_stored
            + match in_pending with None -> 0 | Some p -> Relation.slot_count p
          in
          (* a tuple the database holds keeps its stored spelling ([Int 2]
             and [Float 2.0] are one tuple), so a delta names exactly what
             aggregate indexes and lineage saw stored *)
          let tup =
            if Relation.slot_count in_stored > 0 then Relation.slot_tuple in_stored
            else
              match in_pending with
              | Some p when Relation.slot_count p > 0 -> Relation.slot_tuple p
              | _ -> tup
          in
          match Database.semantics db with
          | Database.Duplicate_semantics ->
            if have + c < 0 then
              fail "deleting %d copies of %s%s but only %d stored" (-c) pred
                (Tuple.to_string tup) have;
            Relation.add out tup c
          | Database.Set_semantics ->
            if c > 0 && have = 0 then Relation.add out tup 1
            else if c < 0 then begin
              if have = 0 then
                fail "deleting %s%s which is not in the database" pred
                  (Tuple.to_string tup);
              Relation.add out tup (-1)
            end)
        delta;
      if Relation.is_empty out then None else Some (pred, out))
    t
  |> List.sort (fun (p, _) (q, _) -> String.compare p q)

let pp ppf (t : t) =
  List.iter
    (fun (pred, r) -> Format.fprintf ppf "Δ%s = %a@." pred Relation.pp r)
    t

let to_string t = Format.asprintf "%a" pp t
