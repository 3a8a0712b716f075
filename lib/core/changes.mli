(** Change sets — the [Δ] notation of Section 3 of the paper.

    A change set maps base predicates to delta relations: insertions carry
    positive counts, deletions negative counts
    ([Δ(P) = {ab 4, mn −2}] inserts four derivations of [p(a,b)] and
    deletes two of [p(m,n)]).  Updates are modelled, as in the paper, as a
    deletion plus an insertion. *)

module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database

type t = (string * Relation.t) list

exception Invalid_changes of string

(** Build a change set from per-predicate [(tuple, signed count)] lists.
    @raise Program.Program_error on unknown predicates. *)
val of_list : Program.t -> (string * (Tuple.t * int) list) list -> t

val insertions : Program.t -> string -> Tuple.t list -> t
val deletions : Program.t -> string -> Tuple.t list -> t

(** Deletion of [old_tuple] ⊎ insertion of [new_tuple]. *)
val update : Program.t -> string -> old_tuple:Tuple.t -> new_tuple:Tuple.t -> t

(** Per-predicate [⊎] of two change sets. *)
val merge : t -> t -> t

val is_empty : t -> bool

(** Total number of distinct changed tuples. *)
val total_tuples : t -> int

(** {2 Net-change collectors}

    A collector accumulates the net stored-count changes a maintenance run
    actually commits — base {e and} derived predicates — as a change set.
    Algorithms hand it, with {!absorb}, each relation they commit, whole
    (every count in it is the applied difference, new stored count − old),
    making the collected set exact by construction: replaying it with [⊎]
    onto any count-identical database reproduces the post-maintenance
    database.  A run that rewrites stored state wholesale (recomputation,
    rederivation) calls {!mark_incomplete}; consumers such as the snapshot
    publisher then fall back to a full copy. *)

type collector

val collector : unit -> collector

(** [absorb col pred r] folds the committed delta [r] of [pred] into the
    collector with [⊎].  A predicate's first relation is adopted, not
    copied; a later one merges copy-on-write, into a private copy of the
    adopted relation made then.  So no relation handed to [absorb] is
    ever mutated: a delta returned for one batch of a group is unchanged
    by the next.  The caller must not mutate [r] afterwards. *)
val absorb : collector -> string -> Relation.t -> unit

(** The run mutated stored state outside per-relation tracking;
    {!collected} is no longer a faithful replay. *)
val mark_incomplete : collector -> unit

val is_complete : collector -> bool

(** The accumulated net change set, sorted by predicate, empty deltas
    dropped.  Only meaningful when {!is_complete}; the relations may be
    ones handed to {!absorb} — do not mutate them. *)
val collected : collector -> t

(** {2 Validation} *)

(** Validate against the database and normalize for its semantics:
    changed predicates must be base relations; deletions must not exceed
    stored multiplicities (the standing assumption of Lemma 4.1); under
    set semantics insert/delete collapse to ±1 transitions and re-inserts
    of present tuples are dropped.  Duplicate entries for one predicate
    are merged first.  A changed tuple the database holds comes out
    spelled as stored (a deletion of [Int 2] names the stored
    [Float 2.0]; an equal tuple only [pending] holds, as [pending]
    spells it), so aggregate indexes see the values they hold.

    [pending] is a collector of net base counts not yet applied to the
    database: each check then sees the stored count plus the pending
    one, the state earlier batches leave.  Folding every normalized batch
    of a sequence into [pending] ({!absorb}) validates each batch against
    its prefix and leaves the sequence's net change set in {!collected}
    (durable recovery's net replay).  [pending] is only read here.
    @raise Invalid_changes on violations. *)
val normalize_base : ?pending:collector -> Database.t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
