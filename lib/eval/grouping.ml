(** Evaluation of GROUPBY subgoals (Section 6.2).

    A GROUPBY subgoal over a source relation [U] denotes a grouped relation
    [T] with one tuple [y ++ [agg]] per distinct grouping value [y]
    occurring in [U].  {!compute} materializes [T]; {!delta} is
    Algorithm 6.1: given [Δ(U)] it touches {e only} the groups that occur
    in [Δ(U)], recomputing each touched group's aggregate from the old and
    new versions of [U] (index-assisted, so a touched group costs its own
    size, not [|U|]), and emits [(T_y old, −1)] and [(T_y new, +1)] for the
    groups whose tuple changed. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
open Compile

(** Multiplicity regime: under duplicate semantics a tuple with count [c]
    contributes [c] times to SUM/COUNT/AVG; under set semantics once. *)
type mult = int -> int

(* The spec's pattern, compiled for matching against source tuples
   with every local slot unbound: each match binds them all afresh. *)
let source_match spec = Rule_eval.compile_match ~bound:(fun _ -> false) spec.gsource.cargs

(* Group keys are boxed tuples so every table keyed by them shares the
   cached-hash fast path with the storage layer. *)
module Tbl = Hashtbl.Make (Tuple)

(* group vars occur in the pattern: always bound after a match *)
let key_of_binding spec (binding : Value.t array) =
  Tuple.make (Array.map (fun s -> binding.(s)) spec.ggroup)

(** The grouped relation [T] of [spec] over [view], in full. *)
let compute ?(mult : mult = fun c -> c) (view : Relation_view.t) (spec : agg_spec) :
    Relation.t =
  let binding = Rule_eval.binding spec.gnslots and ops = source_match spec in
  let states : Agg.state Tbl.t = Tbl.create 64 in
  Relation_view.iter
    (fun tup c ->
      let c = mult c in
      if c > 0 && Rule_eval.matches binding ops tup then begin
        let key = key_of_binding spec binding in
        let st =
          match Tbl.find_opt states key with
          | Some st -> st
          | None ->
            let st = Agg.create spec.gfn in
            Tbl.add states key st;
            st
        in
        Agg.update st (Rule_eval.expr_value binding spec.garg) c
      end)
    view;
  let out = Relation.create (spec_arity spec) in
  Tbl.iter
    (fun key st ->
      match Agg.value st with
      | Some v -> Relation.set_count out (Tuple.append key v) 1
      | None -> ())
    states;
  out

(* Probe positions for one group key: the first occurrence of each group
   variable in the pattern, plus every constant position.  Remaining
   pattern constraints (repeated variables) are re-checked per tuple. *)
let probe_spec spec =
  let group_pos =
    Array.map
      (fun g ->
        let pos = ref (-1) in
        Array.iteri
          (fun i t -> if !pos < 0 && t = Cvar g then pos := i)
          spec.gsource.cargs;
        assert (!pos >= 0);
        !pos)
      spec.ggroup
  in
  let const_pos = ref [] in
  Array.iteri
    (fun i t -> match t with Cconst c -> const_pos := (i, c) :: !const_pos | Cvar _ -> ())
    spec.gsource.cargs;
  (group_pos, !const_pos)

(** Aggregate value of the group [key] in [view]; [None] for an empty
    group. *)
let group_value ?(mult : mult = fun c -> c) view spec (key : Tuple.t) :
    Value.t option =
  let group_pos, const_pos = probe_spec spec in
  let cols = ref [] and vals = ref [] in
  List.iter
    (fun (i, c) ->
      cols := i :: !cols;
      vals := c :: !vals)
    const_pos;
  Array.iteri
    (fun k pos ->
      if not (List.mem pos !cols) then begin
        cols := pos :: !cols;
        vals := Tuple.get key k :: !vals
      end)
    group_pos;
  let paired = List.combine !cols !vals |> List.sort compare in
  let cols = Array.of_list (List.map fst paired)
  and vals = List.map snd paired in
  let st = Agg.create spec.gfn in
  let binding = Rule_eval.binding spec.gnslots and ops = source_match spec in
  Relation_view.probe view cols (Tuple.of_list vals) (fun tup c ->
      Ivm_obs.Metrics.inc Stats.tuples_scanned_c;
      let c = mult c in
      if c > 0 && Rule_eval.matches binding ops tup
         && Tuple.equal (key_of_binding spec binding) key
      then Agg.update st (Rule_eval.expr_value binding spec.garg) c);
  Agg.value st

(** Distinct group keys occurring in [delta_u] (insertions or deletions). *)
let affected_keys (delta_u : Relation.t) (spec : agg_spec) : Tuple.t list =
  let binding = Rule_eval.binding spec.gnslots and ops = source_match spec in
  let keys : unit Tbl.t = Tbl.create 16 in
  Relation.iter
    (fun tup _c ->
      if Rule_eval.matches binding ops tup then
        Tbl.replace keys (key_of_binding spec binding) ())
    delta_u;
  Tbl.fold (fun k () acc -> k :: acc) keys []

(** Algorithm 6.1: [Δ(T)] from [Δ(U)] and the old/new versions of [U]. *)
let delta ?(mult : mult = fun c -> c) ~(old_view : Relation_view.t)
    ~(new_view : Relation_view.t) ~(delta_u : Relation.t) (spec : agg_spec) :
    Relation.t =
  let out = Relation.create (spec_arity spec) in
  List.iter
    (fun key ->
      let old_v = group_value ~mult old_view spec key in
      let new_v = group_value ~mult new_view spec key in
      let tuple v = Tuple.append key v in
      match old_v, new_v with
      | Some a, Some b when Value.equal a b -> ()
      | _ ->
        (match old_v with Some a -> Relation.add out (tuple a) (-1) | None -> ());
        (match new_v with Some b -> Relation.add out (tuple b) 1 | None -> ()))
    (affected_keys delta_u spec);
  out
