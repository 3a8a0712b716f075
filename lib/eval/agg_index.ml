(** Persistent incremental aggregate indexes — the fully incremental
    reading of Algorithm 6.1.

    {!Grouping.delta} recomputes each touched group from the stored source
    relation (cost: the group's size).  This index instead keeps one
    {!Agg.state} per group — running sums for COUNT/SUM/AVG, a value
    multiset for MIN/MAX, per [DAJ91] — so a touched group costs
    [O(|Δ| log)] regardless of its size.  The database registers indexes
    per GROUPBY spec; maintenance algorithms consult them for [Δ(T)] and
    refresh them when source deltas commit.  Benched as the E8 ablation. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view

module Tbl = Hashtbl.Make (Tuple)

(* The [mult] regime applies to the initial build only (set semantics
   clamps stored counts to one contribution per tuple).  Deltas handed to
   {!delta_preview}/{!apply_delta} must already be in the index's
   multiplicity regime: full count deltas under duplicate semantics, ±1
   set-transition deltas under set semantics — exactly what the
   maintenance algorithms propagate. *)
type t = {
  spec : Compile.agg_spec;
  mult : int -> int;
  states : Agg.state Tbl.t;  (** group key → accumulator *)
  grouped : Relation.t;  (** the materialized [T], kept in sync *)
}

let spec t = t.spec
let source_pred t = t.spec.Compile.gsource.Compile.cpred

(** The materialized grouped relation (do not mutate). *)
let grouped t = t.grouped

let group_tuple key v = Tuple.append key v

(* Fold the matching (key, aggregated value, multiplicity) triples of a
   delta or view. *)
let iter_contributions spec mult ~iter f =
  let binding = Rule_eval.binding spec.Compile.gnslots
  and ops = Rule_eval.compile_match ~bound:(fun _ -> false) spec.Compile.gsource.Compile.cargs in
  iter (fun tup c ->
      let c = mult c in
      if c <> 0 && Rule_eval.matches binding ops tup then
        let key = Tuple.make (Array.map (fun s -> binding.(s)) spec.Compile.ggroup) in
        f key (Rule_eval.expr_value binding spec.Compile.garg) c)

(** Build from the current source relation. *)
let build ?(mult = fun c -> c) (view : Relation_view.t) (spec : Compile.agg_spec) : t
    =
  let t =
    {
      spec;
      mult;
      states = Tbl.create 64;
      grouped = Relation.create (Compile.spec_arity spec);
    }
  in
  iter_contributions spec mult
    ~iter:(fun f -> Relation_view.iter f view)
    (fun key v c ->
      let st =
        match Tbl.find_opt t.states key with
        | Some st -> st
        | None ->
          let st = Agg.create spec.Compile.gfn in
          Tbl.add t.states key st;
          st
      in
      Agg.update st v c);
  Tbl.iter
    (fun key st ->
      match Agg.value st with
      | Some v -> Relation.set_count t.grouped (group_tuple key v) 1
      | None -> ())
    t.states;
  t

(* The per-group contributions of a source delta, accumulated so each
   group is touched once. *)
let delta_by_group t (delta_u : Relation.t) : (Tuple.t * (Value.t * int) list) list =
  let acc : (Value.t * int) list ref Tbl.t = Tbl.create 16 in
  iter_contributions t.spec Rule_eval.identity_count
    ~iter:(fun f -> Relation.iter f delta_u)
    (fun key v c ->
      match Tbl.find_opt acc key with
      | Some l -> l := (v, c) :: !l
      | None -> Tbl.add acc key (ref [ (v, c) ]));
  Tbl.fold (fun key l rows -> (key, !l) :: rows) acc []

let state_value t key =
  match Tbl.find_opt t.states key with
  | Some st -> Agg.value st
  | None -> None

(** [Δ(T)] for a source delta, {e without} mutating the index: touched
    groups' states are cloned and the delta applied to the clones —
    [O(|Δ| log)] per touched group, independent of group size. *)
let delta_preview (t : t) (delta_u : Relation.t) : Relation.t =
  let out = Relation.create (Compile.spec_arity t.spec) in
  List.iter
    (fun (key, contribs) ->
      let old_v = state_value t key in
      let clone =
        match Tbl.find_opt t.states key with
        | Some st -> Agg.copy st
        | None -> Agg.create t.spec.Compile.gfn
      in
      List.iter (fun (v, c) -> Agg.update clone v c) contribs;
      let new_v = Agg.value clone in
      match old_v, new_v with
      | Some a, Some b when Value.equal a b -> ()
      | _ ->
        (match old_v with
        | Some a -> Relation.add out (group_tuple key a) (-1)
        | None -> ());
        (match new_v with
        | Some b -> Relation.add out (group_tuple key b) 1
        | None -> ()))
    (delta_by_group t delta_u);
  out

(** Fold a committed source delta into the index (states and materialized
    [T]); returns [Δ(T)].  The source relation must already reflect the
    delta — or not: the index never reads it. *)
let apply_delta (t : t) (delta_u : Relation.t) : Relation.t =
  let out = Relation.create (Compile.spec_arity t.spec) in
  List.iter
    (fun (key, contribs) ->
      let st =
        match Tbl.find_opt t.states key with
        | Some st -> st
        | None ->
          let st = Agg.create t.spec.Compile.gfn in
          Tbl.add t.states key st;
          st
      in
      let old_v = Agg.value st in
      List.iter (fun (v, c) -> Agg.update st v c) contribs;
      let new_v = Agg.value st in
      if Agg.is_empty st then Tbl.remove t.states key;
      match old_v, new_v with
      | Some a, Some b when Value.equal a b -> ()
      | _ ->
        (match old_v with
        | Some a ->
          Relation.add out (group_tuple key a) (-1);
          Relation.remove t.grouped (group_tuple key a)
        | None -> ());
        (match new_v with
        | Some b ->
          Relation.add out (group_tuple key b) 1;
          Relation.set_count t.grouped (group_tuple key b) 1
        | None -> ()))
    (delta_by_group t delta_u);
  out

(** Distinct groups currently tracked. *)
let group_count t = Tbl.length t.states

(** Deep copy (used by {!Database.copy}). *)
let copy t =
  let states = Tbl.create (Tbl.length t.states) in
  Tbl.iter (fun key st -> Tbl.add states key (Agg.copy st)) t.states;
  { t with states; grouped = Relation.copy t.grouped }
