(** Incrementally maintainable aggregate accumulators, per [DAJ91] as
    cited in Section 6.2 of the paper: COUNT and integer SUM/AVG keep
    running sums; MIN/MAX keep a multiset of contributing values so
    deletions never force a rescan of the group, and so do the float
    contributions of SUM/AVG.  One {!state} holds one group. *)

module Value = Ivm_relation.Value

type state

val create : Ivm_datalog.Ast.agg_fn -> state
val copy : state -> state
val is_empty : state -> bool

(** [update st v mult] adds [mult] occurrences of [v]; negative [mult]
    removes.  @raise Invalid_argument when removing occurrences never
    added (a Lemma 4.1 precondition violation);
    @raise Value.Type_error when summing non-numeric values. *)
val update : state -> Value.t -> int -> unit

(** Current aggregate value; [None] for an empty group.  It is a function
    of the group's value multiset alone: the order of the updates that
    built it never shows, not even in a float SUM/AVG (integer
    contributions are summed exactly, float ones in ascending value
    order). *)
val value : state -> Value.t option

(** One-shot aggregation of [(value, multiplicity)] pairs — the oracle
    used by recomputation and tests. *)
val of_seq : Ivm_datalog.Ast.agg_fn -> (Value.t * int) Seq.t -> state
