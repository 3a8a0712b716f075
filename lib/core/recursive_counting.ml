(** Counting for recursive views — the [GKM92] extension discussed in
    Section 8: "Counting can be used to maintain recursive views also.
    However computing counts for recursive views is expensive and
    furthermore counting may not terminate on some views."

    This module maintains full derivation counts through recursive
    components by iterating Definition 4.1 delta rules to a fixpoint:
    each round treats the previous round's deltas as a batch update, with
    "new" relations including the batch and "old" relations excluding it,
    so counts stay exact (Theorem 4.1 applied per batch).  On data over
    which a tuple has infinitely many derivations (a cycle reachable from
    and to itself), counts diverge; the iteration is capped and
    {!Divergence} raised — this is the behaviour the paper predicts, and
    finiteness detection [MS93a] is future work.

    Duplicate semantics only (derivation counting is the point); use
    {!Dred} for set-semantics recursive maintenance. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Compile = Ivm_eval.Compile
module Rule_eval = Ivm_eval.Rule_eval

module Par_eval = Ivm_eval.Par_eval
module Metrics = Ivm_obs.Metrics

exception Divergence of string

let default_max_rounds = 10_000

let batches_c =
  Metrics.counter
    ~labels:[ ("algorithm", "recursive-counting") ]
    "ivm_maintain_batches_total"

let engine = Par_eval.engine ~trace:"rc.round" "recursive-counting"

(* One recursive unit: iterate batch updates until the pending deltas
   drain.  [ctx] carries the finalized deltas of lower strata.  Each unit
   predicate's accumulated delta is installed in [ctx] up front, so
   [ctx]'s new views of it read the accumulator as it grows.  Round 0 is
   plain Definition 4.1 over the lower strata's deltas (the unit is
   unchanged in this batch); round k treats round k−1's output (the
   frontier) as the batch: "new" is stored ⊎ accumulated, "old" is new
   minus the batch. *)
let fix_unit ~max_rounds (ctx : Delta.ctx) unit_preds =
  let db = ctx.Delta.db in
  let program = Database.program db in
  let in_unit p = List.mem p unit_preds in
  Delta.open_unit ctx unit_preds;
  let acc = Delta.full_delta ctx in
  let rules p = List.map (Database.compile db) (Program.rules_for program p) in
  let commit p buf ~next =
    Relation.union_into ~into:next buf;
    Relation.union_into ~into:(acc p) buf
  in
  let step round frontier =
    if round > max_rounds then
      raise
        (Divergence
           (Printf.sprintf
              "counts of recursive predicate %s did not converge after %d \
               rounds — the data has cyclic derivations with infinite counts"
              (List.hd unit_preds) max_rounds));
    let old =
      List.map
        (fun q ->
          let delta =
            match frontier q with
            | Some d -> Relation.union (acc q) (Relation.negate d)
            | None -> acc q
          in
          (q, Relation_view.overlay (Database.relation db q) delta))
        unit_preds
    in
    let inputs cr i j =
      match cr.Compile.clits.(j) with
      | Compile.Catom b when in_unit b.cpred && j > i ->
        Rule_eval.Enumerate (List.assoc b.cpred old, Rule_eval.identity_count)
      | Compile.Catom b when in_unit b.cpred ->
        Rule_eval.Enumerate (Delta.new_view ctx b.cpred, Rule_eval.identity_count)
      | _ -> Delta.inputs ctx cr (fun _ -> Delta.New) j
    in
    Par_eval.seeds ~rules ~inputs
      ~delta:(function
        | Compile.Catom a when in_unit a.cpred -> frontier a.cpred
        | _ -> None)
      unit_preds
  in
  Par_eval.fixpoint engine ~preds:unit_preds ~commit ~step
    (List.concat_map (Delta.rule_seeds ctx) unit_preds);
  (* Register final deltas (and their set transitions) with the context. *)
  List.iter (fun p -> Delta.set_delta ctx p ~full:(acc p)) unit_preds

(** Recursive counting as the driver runs it: Counting's delta rules on
    a nonrecursive unit, {!fix_unit} on an SCC. *)
let algorithm ?(max_rounds = default_max_rounds) () =
  {
    Delta.batches = batches_c;
    span = "recursive_counting.maintain";
    step =
      (fun ~recursive ->
        if recursive then Delta.Fixpoint (fix_unit ~max_rounds) else Delta.Derive);
  }

(** Incrementally maintain all views — recursive ones included — with full
    derivation counts.  @raise Divergence when counts cannot converge;
    @raise Invalid_argument under set semantics (use {!Dred}). *)
let maintain ?max_rounds ?track (db : Database.t) (changes : Changes.t) :
    Delta.report =
  if Database.semantics db = Database.Set_semantics then
    invalid_arg
      "Recursive_counting.maintain: derivation counting through recursion \
       needs duplicate semantics; use Dred for set semantics";
  Delta.maintain ?track (algorithm ?max_rounds ()) db changes

(** Materialize a database whose program may be recursive with full
    derivation counts: equivalent to maintaining from an empty database
    with every base fact inserted.  @raise Divergence on cyclic data. *)
let evaluate ?(max_rounds = default_max_rounds) (db : Database.t) : unit =
  let program = Database.program db in
  let base_contents =
    List.map
      (fun p ->
        let r = Database.relation db p in
        let copy = Relation.copy r in
        Relation.clear r;
        (p, copy))
      (Program.base_preds program)
  in
  List.iter
    (fun p ->
      Relation.clear (Database.relation db p))
    (Program.derived_preds program);
  ignore (maintain ~max_rounds db base_contents)
