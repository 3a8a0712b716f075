(** Provenance queries: [why] derivation trees, [why not] failure
    analysis, and [lineage] batch history.

    This module never touches the database directly — callers hand it a
    {!db_access} record of closures (built by [Ivm.View_manager]), and
    every relation it reads goes through [probe], [holds] and [count].

    [why] and [why not] run one bounded backtracking search over the
    live relations: bind a rule's head to the tuple, then instantiate the
    body literals most-bound-first.  [why] collects every instantiation
    that succeeds, so it needs no capture: a tree edge is a current
    derivation by construction.  [why not] keeps the deepest failure.
    Each tuple's search, over all its candidate rules, takes at most
    20,000 steps.

    The search runs on {!Ivm_eval.Compile.compile} of each rule with the
    evaluator's own primitives: {!Ivm_eval.Rule_eval} bindings, matches,
    expressions and comparisons, and an {!Ivm_eval.Agg} accumulator for
    a GROUPBY subgoal's group.  It compares, computes and aggregates
    exactly as maintenance does.

    Each derivation's [mult] is the product of its positive subgoals'
    counts, read the way the evaluator reads them ({!db_access.mult_for}),
    so under every resolution that stores exact counts (all but explicit
    DRed) a node's [derivations] equals the tuple's stored count whenever
    its search finished within budget. *)

module Tuple = Ivm_relation.Tuple
module Value = Ivm_relation.Value

(** Database access closures.  [probe p bound f] calls [f tuple count]
    for every present tuple of [p] whose listed (column, value)
    constraints match; [bound = []] scans. *)
type db_access = {
  rules_for : string -> Ivm_datalog.Ast.rule list;
  is_base : string -> bool;
  known_pred : string -> bool;
  holds : string -> Tuple.t -> bool;
  count : string -> Tuple.t -> int;
  probe : string -> (int * Value.t) list -> (Tuple.t -> int -> unit) -> unit;
  mult_for : string -> int -> int;
      (** the count transform the evaluator applies when reading a
          predicate: the set clamp, or identity under duplicate semantics *)
}

(** {1 why} *)

type tree = { t_pred : string; t_tuple : Tuple.t; t_kind : kind }

and kind =
  | Base  (** a base fact — a leaf *)
  | Derived of {
      supports : deriv list;  (** the derivations shown *)
      derivations : int;  (** Σ [d_mult] over every derivation found *)
      elided : int;  (** derivations found but hidden by the width bound *)
      truncated : bool;  (** the search ran out of budget *)
    }
  | Cycle  (** this tuple already appears on the path to the root *)
  | Depth_limit
  | Unsupported
      (** present, but the search found no derivation (it ran out of
          budget, or the stored view is stale) *)

and deriv = {
  d_rule : string;  (** pretty-printed source rule *)
  d_mult : int;  (** product of the positive subgoals' counts *)
  d_note : string option;  (** e.g. aggregate subgoals not expanded *)
  d_children : tree list;
}

type why_result = Why_unknown_pred | Why_absent | Why_tree of tree

(** Depth default 8, width (derivations shown per node) default 4.
    Shown derivations are ordered by rule, then by subgoal tuples. *)
val why :
  ?max_depth:int -> ?max_width:int -> db_access -> string -> Tuple.t ->
  why_result

(** {1 why not} *)

type failure = {
  f_rule : string;
  f_progress : int;
      (** body literals satisfied on the deepest partial instantiation;
          [-1] when the head itself cannot match *)
  f_total : int;  (** body literals in the rule *)
  f_failing : string option;  (** the first failing literal, pretty-printed *)
  f_bindings : (string * Value.t) list;  (** bindings at the failure *)
  f_note : string;
}

type whynot_result =
  | Whynot_unknown_pred
  | Whynot_present of int  (** the tuple is in the view (with this count) *)
  | Whynot_base  (** base predicate: absent because never inserted *)
  | Whynot_no_rules
  | Whynot_failures of failure list  (** one per candidate rule *)

(** The same search per candidate rule, reporting each rule's deepest
    failure. *)
val whynot : db_access -> string -> Tuple.t -> whynot_result

(** {1 lineage} *)

type lineage_report = {
  l_pred : string;
  l_tuple : Tuple.t;
  l_present : bool;
  l_count : int;
  l_info : Prov.lineage option;
  l_batches : Prov.batch_info list;  (** the batch ring, for naming *)
}

type lineage_result = Lineage_unknown_pred | Lineage of lineage_report

val lineage : db_access -> string -> Tuple.t -> lineage_result

(** {1 Rendering} *)

val fact_to_string : string -> Tuple.t -> string
val pp_why : Format.formatter -> why_result -> unit
val pp_whynot : string -> Tuple.t -> Format.formatter -> whynot_result -> unit
val pp_lineage : Format.formatter -> lineage_result -> unit
val why_json : why_result -> Ivm_obs.Json.t
val whynot_json : whynot_result -> Ivm_obs.Json.t
val lineage_json : lineage_result -> Ivm_obs.Json.t
