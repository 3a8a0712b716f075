(** Incrementally maintainable aggregate accumulators, per [DAJ91] as cited
    in Section 6.2: COUNT and integer SUM/AVG keep running sums; MIN/MAX
    keep a multiset of contributing values so deletions never force a
    rescan of the group, and so do the float contributions of SUM/AVG,
    whose sum is read off the multiset in ascending order.  One {!state}
    holds one group's accumulator. *)

module Value = Ivm_relation.Value
open Ivm_datalog.Ast

module Vmap = Map.Make (Value)

type state = {
  fn : agg_fn;
  mutable n : int;  (** multiplicity-weighted number of contributions *)
  mutable sum_int : int;  (** exact sum of integer contributions *)
  mutable values : int Vmap.t;
      (** value multiset: every contribution under Min/Max, the float
          ones under Sum/Avg *)
}

let create fn = { fn; n = 0; sum_int = 0; values = Vmap.empty }

let copy s = { s with fn = s.fn }

let is_empty s = s.n = 0

let touch_values s v mult =
  let c = Option.value ~default:0 (Vmap.find_opt v s.values) + mult in
  if c < 0 then invalid_arg "Agg.update: value multiplicity went negative";
  s.values <- (if c = 0 then Vmap.remove v s.values else Vmap.add v c s.values)

(** [update s v mult] adds [mult] occurrences of [v] ([mult < 0] removes).
    @raise Invalid_argument when removing occurrences that were never
    added (the caller violated Lemma 4.1's guarantee that deletions are a
    subset of the database). *)
let update s v mult =
  if mult <> 0 then begin
    s.n <- s.n + mult;
    if s.n < 0 then invalid_arg "Agg.update: group multiplicity went negative";
    match s.fn, v with
    | Count, _ -> ()
    | (Sum | Avg), Value.Int x -> s.sum_int <- s.sum_int + (x * mult)
    | (Sum | Avg), Value.Float x ->
      (* A removal beyond the float copies takes the rest from the equal
         Int: a stored tuple and its delta may spell 2 and 2.0 apart. *)
      let have = Option.value ~default:0 (Vmap.find_opt v s.values) in
      let excess = min 0 (have + mult) in
      touch_values s v (mult - excess);
      s.sum_int <- s.sum_int + (int_of_float x * excess)
    | (Min | Max), _ -> touch_values s v mult
    | (Sum | Avg), v ->
      raise (Value.Type_error ("cannot aggregate over " ^ Value.to_string v))
  end

(* The float contributions' sum, in ascending value order: a function of
   the multiset alone, whatever order the contributions arrived in. *)
let float_sum s =
  Vmap.fold
    (fun v c acc ->
      match v with Value.Float x -> acc +. (x *. float_of_int c) | _ -> acc)
    s.values 0.

(** Current aggregate value; [None] when the group is empty (an empty group
    contributes no tuple to the grouped relation). *)
let value s =
  if s.n = 0 then None
  else
    match s.fn with
    | Count -> Some (Value.Int s.n)
    | Sum ->
      Some
        (if Vmap.is_empty s.values then Value.Int s.sum_int
         else Value.Float (float_sum s +. float_of_int s.sum_int))
    | Avg -> Some (Value.Float ((float_sum s +. float_of_int s.sum_int) /. float_of_int s.n))
    | Min -> Some (fst (Vmap.min_binding s.values))
    | Max -> Some (fst (Vmap.max_binding s.values))

(** One-shot aggregation of a value sequence (used by full recomputation
    and by tests as the oracle). *)
let of_seq fn seq =
  let s = create fn in
  Seq.iter (fun (v, mult) -> update s v mult) seq;
  s
