(** Read-only views of relations, including the "new" version [Pν = P ⊎ Δ(P)]
    as a lazy overlay, so Algorithm 4.1's delta rules can reference both the
    old and the new value of every relation without copying the stored
    materialization.  Effective counts of an overlay are
    [count base t + count delta t]; tuples whose counts cancel are invisible. *)

type t =
  | Concrete of Relation.t
  | Overlay of { base : Relation.t; delta : Relation.t }
      (** [base ⊎ delta], without materializing the union. *)

val concrete : Relation.t -> t

(** [overlay base delta] — collapses to [Concrete base] when [delta] is
    empty, so unchanged relations pay nothing. *)
val overlay : Relation.t -> Relation.t -> t

val arity : t -> int
val count : t -> Tuple.t -> int

(** Non-zero effective count. *)
val mem : t -> Tuple.t -> bool

(** Strictly positive effective count — "the tuple is true".  Deltas can
    carry negative counts, hence the distinction with {!mem}. *)
val holds : t -> Tuple.t -> bool

(** Iterates each visible tuple exactly once with its effective count. *)
val iter : (Tuple.t -> int -> unit) -> t -> unit

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

(** A view probe with its access paths resolved once (see
    {!Relation.probe_handle}) — one handle for a [Concrete] view, a
    base/delta pair for an [Overlay].  Like relation handles, prepared
    probes are transient: resolve per evaluation. *)
type prepared

val prepare_probe : t -> int array -> prepared

(** [prober p f] is the probe that reports each visible tuple matching
    its key exactly once, with its effective count, to [f]; built once
    and applied per key, it allocates no closure per call.  [f] receives
    stored tuples, never the key, so the key's buffer may be reused
    across calls. *)
val prober : prepared -> (Tuple.t -> int -> unit) -> Tuple.t -> unit

(** Index-assisted scan of tuples matching [key] on [cols] — the one-shot
    [prober (prepare_probe v cols)]; each visible tuple reported once. *)
val probe : t -> int array -> Tuple.t -> (Tuple.t -> int -> unit) -> unit

(** Distinct visible tuples (exact for [Concrete], an upper bound for
    [Overlay] — used only to pick join orders). *)
val cardinal_estimate : t -> int

(** Materialize the view into a fresh relation. *)
val force : t -> Relation.t
