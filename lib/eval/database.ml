(** The database: one stored {!Ivm_relation.Relation.t} per predicate —
    base relations (edb) loaded by the user, derived relations (idb)
    materialized with their derivation counts — plus a compiled-rule cache.

    Under {e duplicate semantics} (SQL without DISTINCT; Section 5) stored
    counts are full multiplicities and join inputs keep their counts.
    Under {e set semantics} stored counts are the number of derivations
    {e assuming all tuples of lower strata have count one} (Section 5.1);
    the evaluator reads lower-stratum inputs through the {!Rule_eval.set_count}
    clamp. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Tuple = Ivm_relation.Tuple
module Program = Ivm_datalog.Program

type semantics = Set_semantics | Duplicate_semantics

type t = {
  program : Program.t;
  semantics : semantics;
  rels : (string, Relation.t) Hashtbl.t;
  compiled : (Ivm_datalog.Ast.rule, Compile.t) Hashtbl.t;
  agg_indexes : (string, Agg_index.t) Hashtbl.t;
      (** persistent incremental aggregate indexes, keyed by GROUPBY-spec
          signature (opt-in, see {!register_agg_index}) *)
  distinct : (string, unit) Hashtbl.t;
      (** views with per-view set semantics inside a duplicate-semantics
          database — SQL's DISTINCT, §5.1 of the paper *)
}

let create ?(semantics = Set_semantics) (program : Program.t) : t =
  let rels = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace rels name (Relation.create (Program.arity program name)))
    (Program.base_preds program @ Program.derived_preds program);
  {
    program;
    semantics;
    rels;
    compiled = Hashtbl.create 16;
    agg_indexes = Hashtbl.create 4;
    distinct = Hashtbl.create 4;
  }

let program t = t.program
let semantics t = t.semantics

(** The count transform applied to non-delta subgoals: identity under
    duplicate semantics, the 0/1 clamp under set semantics. *)
let mult t =
  match t.semantics with
  | Duplicate_semantics -> Rule_eval.identity_count
  | Set_semantics -> Rule_eval.set_count

(** Mark a derived relation DISTINCT: its stored counts stay derivation
    counts, but readers see each true tuple once and only its set
    transitions propagate (§5.1: "it is possible for a query to require
    set semantics (by using the DISTINCT operator). The implementation
    issues for such queries are similar to the case of systems
    implementing set semantics").  No-op under set semantics. *)
let mark_distinct t pred =
  if not (Program.is_derived t.program pred) then
    invalid_arg ("Database.mark_distinct: " ^ pred ^ " is a base relation");
  Hashtbl.replace t.distinct pred ()

let is_distinct t pred = Hashtbl.mem t.distinct pred

let distinct_views t =
  Hashtbl.fold (fun p () acc -> p :: acc) t.distinct [] |> List.sort String.compare

(** The count transform readers of [pred] apply: the set clamp under set
    semantics or for DISTINCT views, identity otherwise. *)
let mult_for t pred =
  match t.semantics with
  | Set_semantics -> Rule_eval.set_count
  | Duplicate_semantics ->
    if is_distinct t pred then Rule_eval.set_count else Rule_eval.identity_count

let relation t name =
  match Hashtbl.find_opt t.rels name with
  | Some r -> r
  | None ->
    raise (Program.Program_error (Printf.sprintf "unknown relation %s" name))

let view t name = Relation_view.concrete (relation t name)

let compile ?name t rule =
  match Hashtbl.find_opt t.compiled rule with
  | Some c -> c
  | None ->
    let c = Compile.compile ?name rule in
    Hashtbl.add t.compiled rule c;
    c

(** Insert base facts, one derivation each.  Under set semantics duplicate
    loads are idempotent. *)
let load t name tuples =
  let r = relation t name in
  List.iter
    (fun tup ->
      match t.semantics with
      | Duplicate_semantics -> Relation.add r tup 1
      | Set_semantics -> if not (Relation.mem r tup) then Relation.add r tup 1)
    tuples

(* ---------------- aggregate indexes ---------------- *)

(** Opt one GROUPBY spec into persistent incremental aggregation: builds
    the per-group accumulator index from the current source relation.
    Maintenance algorithms then compute its [Δ(T)] in [O(|Δ| log)] and
    refresh it on commit. *)
let register_agg_index t (spec : Compile.agg_spec) : Agg_index.t =
  match Hashtbl.find_opt t.agg_indexes spec.Compile.gsignature with
  | Some idx -> idx
  | None ->
    let source = spec.Compile.gsource.Compile.cpred in
    let idx = Agg_index.build ~mult:(mult_for t source) (view t source) spec in
    Hashtbl.replace t.agg_indexes spec.Compile.gsignature idx;
    idx

let agg_index t (spec : Compile.agg_spec) =
  Hashtbl.find_opt t.agg_indexes spec.Compile.gsignature

(** Signatures of every registered aggregate index, sorted — the snapshot
    layer persists these so reload can re-register the same specs. *)
let agg_signatures t =
  Hashtbl.fold (fun sig_ _ acc -> sig_ :: acc) t.agg_indexes []
  |> List.sort String.compare

(** Fold committed source deltas into every registered index.  Call after
    the stored relations reflect the deltas. *)
let refresh_agg_indexes t (applied : (string * Relation.t) list) =
  Hashtbl.iter
    (fun _ idx ->
      match List.assoc_opt (Agg_index.source_pred idx) applied with
      | Some delta when not (Relation.is_empty delta) ->
        ignore (Agg_index.apply_delta idx delta)
      | _ -> ())
    t.agg_indexes

(** Drop indexes whose source is [pred] — its relation changed outside
    delta-tracked maintenance. *)
let invalidate_agg_indexes t pred =
  let stale =
    Hashtbl.fold
      (fun sig_ idx acc ->
        if Agg_index.source_pred idx = pred then sig_ :: acc else acc)
      t.agg_indexes []
  in
  List.iter (Hashtbl.remove t.agg_indexes) stale

let clear_agg_indexes t = Hashtbl.reset t.agg_indexes

(** Overwrite one relation's contents (used when committing maintenance
    results and by the recomputation baseline).  Invalidates aggregate
    indexes sourced from it. *)
let set_relation t name rel =
  if Relation.arity rel <> Program.arity t.program name then
    invalid_arg ("Database.set_relation: arity mismatch for " ^ name);
  invalidate_agg_indexes t name;
  Hashtbl.replace t.rels name rel

(** Fresh database with the same program/semantics and deep-copied
    relations — lets tests run two algorithms from the same state.
    [~with_indexes:false] skips rebuilding secondary indexes on the
    copies (the serve publish fast path; readers rebuild on demand). *)
let copy ?(with_indexes = true) t =
  let rels = Hashtbl.create (Hashtbl.length t.rels) in
  Hashtbl.iter
    (fun name r -> Hashtbl.replace rels name (Relation.copy ~with_indexes r))
    t.rels;
  let agg_indexes = Hashtbl.create (Hashtbl.length t.agg_indexes) in
  Hashtbl.iter
    (fun sig_ idx -> Hashtbl.replace agg_indexes sig_ (Agg_index.copy idx))
    t.agg_indexes;
  { t with rels; agg_indexes; distinct = Hashtbl.copy t.distinct }

(** Canonical content digest: MD5 over the semantics tag plus, for every
    predicate in sorted order, its sorted [(tuple, count)] entries.  Base
    and derived relations both contribute, counts included — two databases
    digest equal iff they are count-identical, which is exactly the
    publisher-equivalence contract (indexes and caches deliberately do not
    participate). *)
let canonical_digest t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (match t.semantics with Set_semantics -> "set;" | Duplicate_semantics -> "dup;");
  let names =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.rels [])
  in
  List.iter
    (fun name ->
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      List.iter
        (fun (tup, c) ->
          Buffer.add_string buf (Tuple.to_string tup);
          Buffer.add_char buf ':';
          Buffer.add_string buf (string_of_int c);
          Buffer.add_char buf ';')
        (Relation.to_sorted_list (relation t name));
      Buffer.add_char buf '\n')
    names;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** Do the stored relations of [a] and [b] agree?  Under set semantics
    compares sets; under duplicate semantics compares counts. *)
let agree ?(preds = []) a b =
  let preds =
    if preds <> [] then preds
    else Program.base_preds a.program @ Program.derived_preds a.program
  in
  List.for_all
    (fun p ->
      let ra = relation a p and rb = relation b p in
      match a.semantics with
      | Set_semantics -> Relation.equal_sets ra rb
      | Duplicate_semantics -> Relation.equal_counted ra rb)
    preds

(** Refresh the per-relation observability gauges
    ([ivm_relation_cardinality{relation=p}] and
    [ivm_relation_indexes{relation=p}]) from the stored relations.  One
    cheap pass over the relation table; {!Ivm.View_manager.apply} calls it
    after each committed batch so the registry tracks live sizes. *)
let observe_gauges t =
  List.iter
    (fun p ->
      let r = relation t p in
      let labels = [ ("relation", p) ] in
      Ivm_obs.Metrics.set
        (Ivm_obs.Metrics.gauge ~labels "ivm_relation_cardinality")
        (float_of_int (Relation.cardinal r));
      Ivm_obs.Metrics.set
        (Ivm_obs.Metrics.gauge ~labels "ivm_relation_indexes")
        (float_of_int (Relation.index_count r)))
    (Program.base_preds t.program @ Program.derived_preds t.program)

let pp ppf t =
  let names = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.rels []) in
  List.iter
    (fun name ->
      Format.fprintf ppf "%s = %a@." name Relation.pp (relation t name))
    names

(** Serialize the database as a re-loadable program text: the rules, then
    every base fact (repeated per multiplicity under duplicate semantics).
    Derived relations are rebuilt on load. *)
let dump ppf t =
  Ivm_datalog.Pretty.pp_program ppf (Program.rules t.program);
  Format.pp_print_newline ppf ();
  List.iter
    (fun pred ->
      List.iter
        (fun (tup, c) ->
          for _ = 1 to max 1 c do
            Format.fprintf ppf "%a@."
              Ivm_datalog.Pretty.pp_statement
              (Ivm_datalog.Ast.Sfact (pred, Tuple.to_list tup))
          done)
        (Relation.to_sorted_list (relation t pred)))
    (Program.base_preds t.program)
