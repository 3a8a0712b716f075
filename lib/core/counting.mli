(** The counting algorithm — Algorithm 4.1 of the paper — for incremental
    maintenance of {e nonrecursive} views with negation (Section 6.1),
    aggregation (Section 6.2), union, and both duplicate and set semantics
    (Section 5).

    For every rule [p :- s1 & … & sn] and every changeable body position
    [i], the delta rule

    {v Δ(p) :- s1ν & … & s(i−1)ν & Δ(si) & s(i+1) & … & sn v}

    (Definition 4.1) is evaluated when [Δ(si)] is non-empty; all results
    are combined with [⊎] into [Δ(P)], which by Theorem 4.1 holds exactly
    [countν(t) − count(t)] for every tuple — the algorithm computes
    precisely the view tuples that change.  Under set semantics the boxed
    statement (2) propagates only [set(Pν) − set(P)] upward, so a deletion
    that leaves alternative derivations cascades nowhere (Example 5.1). *)

module Database = Ivm_eval.Database

exception Recursive_program of string

(** Counting as the driver runs it: {!Delta.Derive} on every unit. *)
val algorithm : Delta.algorithm

(** Apply base-relation changes to [db], incrementally updating every
    materialized view: one {!Delta.maintain} call, which commits to the
    stored relations and returns what changed.  [?track] is handed every
    committed delta whole, at commit time ({!Changes.absorb}: the
    snapshot publisher's net-change feed).
    @raise Recursive_program when the program has recursive views — use
    {!Dred} (Section 7);
    @raise Changes.Invalid_changes on malformed change sets. *)
val maintain : ?track:Changes.collector -> Database.t -> Changes.t -> Delta.report
