(** Counting for recursive views — the [GKM92] extension the paper
    discusses in Section 8: full derivation counts are maintained through
    recursive components by iterating Definition 4.1 delta rules to a
    fixpoint, each round treating the previous round's deltas as a batch
    update (Theorem 4.1 applied per batch keeps counts exact).

    On data with cyclic derivations counts are infinite; the iteration is
    capped and {!Divergence} raised — "counting may not terminate on some
    views" (Section 8).  Duplicate semantics only. *)

module Database = Ivm_eval.Database

exception Divergence of string

val default_max_rounds : int

(** Recursive counting as the driver runs it: Counting's delta rules
    ({!Delta.Derive}) on a nonrecursive unit, a fixpoint of delta rounds
    ({!Delta.Fixpoint}) on an SCC, capped at [max_rounds]. *)
val algorithm : ?max_rounds:int -> unit -> Delta.algorithm

(** Incrementally maintain all views — recursive ones included — with
    exact derivation counts: one {!Delta.maintain} call, which commits and
    reports what changed.  [?track] is handed every committed delta
    whole, at commit time ({!Changes.absorb}: the snapshot publisher's
    net-change feed).
    @raise Divergence when counts cannot converge within [max_rounds];
    @raise Invalid_argument under set semantics (use {!Dred}). *)
val maintain :
  ?max_rounds:int ->
  ?track:Changes.collector ->
  Database.t ->
  Changes.t ->
  Delta.report

(** Materialize a (possibly recursive) program with derivation counts:
    equivalent to maintaining from an empty database with every base fact
    inserted.  @raise Divergence on cyclic data. *)
val evaluate : ?max_rounds:int -> Database.t -> unit
