(** Counted relations — the storage layer of the reproduction.

    A relation is a multiset of tuples represented as a hash map from tuple
    to a signed {e count}.  Following Section 3 of the paper:

    - a {e stored} (materialized) relation holds, for each tuple [t], the
      number of distinct derivations [count(t) > 0];
    - a {e delta} relation [Δ(P)] holds insertions as positive counts and
      deletions as negative counts ([Δ(P) = {ab 4, mn −2}] means four
      derivations of [p(a,b)] inserted, two of [p(m,n)] deleted);
    - the union operator [⊎] ({!union_into}/{!union}) adds counts and drops
      tuples whose counts cancel to zero;
    - joins multiply counts (implemented by the rule evaluator, which reads
      counts through {!probe}/{!iter}).

    Relations carry hash indexes on column subsets, built on demand and
    maintained incrementally by {!add}, so delta-rule evaluation can probe
    large stored relations by bound columns instead of scanning. *)

type t

(** [create ?size arity] makes an empty relation of the given arity. *)
val create : ?size:int -> int -> t

val arity : t -> int

(** Number of distinct tuples with a non-zero count. *)
val cardinal : t -> int

(** Number of demand-built secondary indexes currently attached (for the
    observability gauges). *)
val index_count : t -> int

(** Sum of all counts (signed); for a stored view this is the total number
    of derivations, i.e. the duplicate-semantics size. *)
val total_count : t -> int

val is_empty : t -> bool

(** [count r t] is 0 when [t] is absent. *)
val count : t -> Tuple.t -> int

(** [mem r t] — [t] has a non-zero count. *)
val mem : t -> Tuple.t -> bool

(** [true] only if every tuple of [r] holds only [Int] values: it holds
    while every tuple inserted since {!create} or the last {!clear} did,
    and a removal never restores it, so [false] may be stale. *)
val all_ints : t -> bool

(** [add r t c] merges [c] into [t]'s count ([⊎] on a single tuple);
    the tuple is dropped when its count reaches zero.  [add r t 0] is a
    no-op.  Indexes are maintained.
    @raise Invalid_argument on an arity mismatch. *)
val add : t -> Tuple.t -> int -> unit

(** [set_count r t c] overwrites the count ([c = 0] deletes). *)
val set_count : t -> Tuple.t -> int -> unit

(** [patch r t c] applies a signed net delta in place, like {!add} —
    indexes are maintained incrementally (an in-place count bump touches
    no index at all) — but refuses to drive a count negative.  The
    snapshot publisher applies net changes already committed to the live
    database, so a negative result means publisher and live store have
    diverged.
    @raise Invalid_argument on arity mismatch or a would-be negative
    count. *)
val patch : t -> Tuple.t -> int -> unit

(** [patch_count r t c] is [patch r t c], returning [t]'s count before:
    one lookup for a commit that must also see the transition. *)
val patch_count : t -> Tuple.t -> int -> int

(** [remove r t] deletes the tuple outright, whatever its count. *)
val remove : t -> Tuple.t -> unit

(** {2 One lookup, read then updated}

    [let s = find r t in … bump r s t c] is [count r t] followed by
    [add r t c] with one hash lookup between them: a commit that reads a
    tuple's count to decide how to change it.  [bump] inserts, bumps in
    place or removes exactly as {!add} does, so the table, its chains and
    its indexes end up as after {!add}. *)

(** [t]'s entry in [r], or a slot of count 0 when [t] is absent. *)
type slot

val find : t -> Tuple.t -> slot
val slot_count : slot -> int

(** The tuple as [r] stores it (equal tuples may differ in spelling:
    [Int 2] and [Float 2.0]); only meaningful when [slot_count] is not 0. *)
val slot_tuple : slot -> Tuple.t

(** [bump r s t c] is [add r t c], where [s = find r t] and nothing
    has changed [r] since that [find] (the slot may be stale otherwise).
    @raise Invalid_argument on an arity mismatch. *)
val bump : t -> slot -> Tuple.t -> int -> unit

val iter : (Tuple.t -> int -> unit) -> t -> unit
val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val exists : (Tuple.t -> int -> bool) -> t -> bool
val clear : t -> unit

(** Deep copy.  With [~with_indexes:true] (the default) every secondary
    index is rebuilt over the fresh entries, so the copy behaves like the
    live relation without lazily rebuilding on first probe.
    [~with_indexes:false] skips the rebuild — the serve publish path uses
    this because readers may never probe those indexes; a reader that
    does probe rebuilds on demand under the build lock. *)
val copy : ?with_indexes:bool -> t -> t

(** [union_into ~into r] folds [r] into [into] with [⊎]. *)
val union_into : into:t -> t -> unit

(** Fresh [⊎] of the arguments.  The result carries no indexes (they are
    rebuilt on demand if the result is ever probed) — copying the left
    argument's indexes only to discard them was pure waste. *)
val union : t -> t -> t

(** [diff a b] is [a ⊎ (−1 · b)]: subtracts counts.  Index-free like
    {!union}. *)
val diff : t -> t -> t

(** All counts negated — used to turn an insertion delta into a deletion.
    The result is laid out entry for entry as [r] is, so it iterates in
    [r]'s order (a {!copy} does not); it carries no index. *)
val negate : t -> t

(** [to_set r] clamps positive counts to 1 and drops non-positive tuples:
    the relation "considered as a set" (statement 2 of Algorithm 4.1). *)
val to_set : t -> t

(** Tuples with count > 0 kept with their counts (drops deletions). *)
val positive_part : t -> t

(** Tuples with count < 0, with counts negated to positive (the deletions). *)
val negative_part : t -> t

(** [set_delta ~old_ ~new_] is [set(new) − set(old)] with ±1 counts —
    exactly the boxed statement (2) of Algorithm 4.1. *)
val set_delta : old_:t -> new_:t -> t

(** Equality of the underlying sets ({i count > 0} tuples). *)
val equal_sets : t -> t -> bool

(** Equality including counts. *)
val equal_counted : t -> t -> bool

(** [ensure_index r cols] builds (once) a hash index keyed by the listed
    column positions; subsequent {!add}s keep it current. *)
val ensure_index : t -> int array -> unit

(** A probe access path resolved once — at plan-build time rather than per
    probe call.  Resolution classifies the column set (no columns → scan;
    the full tuple in natural order → direct main-table lookup; otherwise
    a secondary index, built now if missing) so {!probe_via} does no
    per-call classification, no index list search, and no second count
    lookup.

    Handles are transient: {!clear} detaches the indexes a handle points
    at, so resolve per evaluation, not per program. *)
type handle

val probe_handle : t -> int array -> handle

(** [probe_via h key f] calls [f tuple count] for every tuple whose
    projection on the handle's columns equals [key].  The tuples passed to
    [f] are the stored ones, never [key] itself, so callers may reuse
    [key]'s buffer across calls. *)
val probe_via : handle -> Tuple.t -> (Tuple.t -> int -> unit) -> unit

(** [probe r cols key f] is [probe_via (probe_handle r cols) key f] —
    the one-shot form.  [cols = [||]] degenerates to {!iter}. *)
val probe : t -> int array -> Tuple.t -> (Tuple.t -> int -> unit) -> unit

(** [probe_existing r cols key f] is {!probe} through access paths [r]
    already has — the main table or a published secondary index — and
    otherwise a filtered scan: it never builds an index.  For readers
    that run beside {!add} without serializing with it, where an index
    built mid-insert would miss the concurrent tuple for good. *)
val probe_existing : t -> int array -> Tuple.t -> (Tuple.t -> int -> unit) -> unit

val of_list : int -> (Tuple.t * int) list -> t

(** Tuples with count 1 each (duplicates in the list accumulate). *)
val of_tuples : int -> Tuple.t list -> t

(** {2 Canonical order}

    One sort kernel serves the three functions below; the order is
    [Tuple.compare] order, and tuples that compare equal without being
    equal (an [Int] and a [Float] past 2^53) keep the reverse of {!iter}
    order.  When every value is an [Int], the kernel reads the values and
    counts once into a flat [int array] and radix-sorts the rows on
    those integers: per column, one O(n) pass for each 11-bit digit of
    the column's spread (max − min; a 2,000-node graph's columns take
    one pass each), and n × (arity + 3) words in all (n more when the
    tuples are wanted).  Any other relation sorts by [Tuple.compare]
    over the tuples, O(n log n) comparisons, each reading both tuples'
    values, and 2n words plus the merge buffer. *)

(** Sorted [(tuple, count)] list — deterministic, for tests and printing. *)
val to_sorted_list : t -> (Tuple.t * int) list

(** [iter_sorted f r] calls [f tuple count] in {!to_sorted_list} order
    without building the list. *)
val iter_sorted : (Tuple.t -> int -> unit) -> t -> unit

(** [iter_sorted_rows ~ints ~tuples r] is {!iter_sorted} for encoders.
    When every value of [r] is an [Int] it calls [ints cols off] once per
    row, in order: the row's values are [cols.(off)] …
    [cols.(off + arity r - 1)] and its count [cols.(off + arity r)] — the
    flat columns the sort ran on, so no tuple is read again.  [cols] is
    the kernel's own array: read it, neither keep nor write it.  Any other
    relation gets [tuples tuple count] per row, as {!iter_sorted}. *)
val iter_sorted_rows :
  ints:(int array -> int -> unit) -> tuples:(Tuple.t -> int -> unit) -> t -> unit

(** Prints as [{ab, ac 2, mn -1}] in tuple order, counts omitted when 1. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
