(** Compilation of AST rules into a slot-based form: every variable gets an
    integer slot so bindings are arrays, not string maps, on the hot path.
    GROUPBY subgoals split into an {!agg_spec} (how the grouped relation is
    computed from its source, in its own local slot space) and a rule-level
    pseudo-atom over the grouping variables and result. *)

module Value = Ivm_relation.Value

type slot = int

type cterm = Cvar of slot | Cconst of Value.t

type cexpr =
  | Xterm of cterm
  | Xadd of cexpr * cexpr
  | Xsub of cexpr * cexpr
  | Xmul of cexpr * cexpr
  | Xdiv of cexpr * cexpr
  | Xneg of cexpr

type catom = { cpred : string; cargs : cterm array }

(** How to compute the grouped relation of one GROUPBY literal.  Slots are
    local to the spec; the grouped relation has columns
    [group values @ [aggregate value]]. *)
type agg_spec = {
  gsource : catom;  (** pattern matched against source tuples *)
  gnslots : int;
  ggroup : slot array;  (** local slots of the grouping variables *)
  garg : cexpr;  (** aggregated expression over local slots *)
  gfn : Ivm_datalog.Ast.agg_fn;
  gsignature : string;
      (** canonical key: equal specs compute equal grouped relations *)
}

type clit =
  | Catom of catom
  | Cneg of catom
  | Cagg of agg_spec * cterm array
      (** rule-level view of the grouped relation: grouping variables then
          the result variable, as rule slots *)
  | Ccmp of cexpr * Ivm_datalog.Ast.cmp_op * cexpr

type t = {
  source : Ivm_datalog.Ast.rule;
  name : string;
      (** the text of the program rule this rule reports under — in
          per-rule attribution and trace spans *)
  head_pred : string;
  nslots : int;
  slot_names : string array;
  chead : cexpr array;
  clits : clit array;
}

(** Compile a GROUPBY literal's spec in its own local slot space. *)
val compile_agg_spec : Ivm_datalog.Ast.aggregate -> agg_spec

(** Arity of the grouped relation a spec denotes. *)
val spec_arity : agg_spec -> int

(** [?name] defaults to the rule's own text; a rewritten rule passes
    the text of the program rule it was rewritten from. *)
val compile : ?name:string -> Ivm_datalog.Ast.rule -> t

(** Indices of body literals whose relation can change — the candidate
    delta positions of Definition 4.1 (comparisons never change). *)
val delta_positions : t -> int list

(** Predicate referenced by a body literal, if any. *)
val lit_pred : clit -> string option
