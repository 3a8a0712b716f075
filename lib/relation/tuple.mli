(** Database tuples: an immutable {!Value.t} vector boxed with its hash,
    computed once at construction.  Every storage-layer table is keyed by
    tuples; caching the hash means [Hashtbl] lookups never re-walk the
    value array, and unequal hashes reject equality in constant time.

    Treat tuples (and the arrays behind them) as immutable — the storage
    layer indexes them by the cached hash, and mutating a stored tuple's
    array corrupts both the hash and the index. *)

type t = private { vals : Value.t array; hash : int }

(** [make vals] boxes [vals], computing the hash.  Takes ownership: the
    caller must not mutate [vals] afterwards. *)
val make : Value.t array -> t

val arity : t -> int

(** [get t i] is column [i] ([t.vals.(i)]). *)
val get : t -> int -> Value.t

val compare : t -> t -> int

(** Physical equality, then cached-hash inequality (constant-time reject),
    then the column-wise walk. *)
val equal : t -> t -> bool

(** The hash cached at construction. *)
val hash : t -> int

(** [hash_cols cols t] is [hash (project cols t)], computed without
    building the projection. *)
val hash_cols : int array -> t -> int

val of_list : Value.t list -> t
val to_list : t -> Value.t list

(** [of_array] is {!make}; [to_array] exposes the underlying array —
    do not mutate it. *)
val of_array : Value.t array -> t

val to_array : t -> Value.t array

(** [of_ints [1;2]] builds an all-integer tuple; [of_strs ["a";"b"]] an
    all-symbol tuple (interned) — the common cases in tests mirroring the
    paper's examples ([link = {ab, mn}]). *)

val of_ints : int list -> t
val of_strs : string list -> t

(** [map f t] is a fresh tuple of [f] over the columns. *)
val map : (Value.t -> Value.t) -> t -> t

(** [project cols t] extracts the listed column positions, in order. *)
val project : int array -> t -> t

(** [append t v] is [t] with [v] as one extra trailing column (grouped
    relations: group key ++ aggregate value). *)
val append : t -> Value.t -> t

(** Prints as [(a, b, 3)]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
