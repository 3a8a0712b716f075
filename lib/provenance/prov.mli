(** Batch lineage capture.

    The counting algorithm of the paper stores, per derived tuple, the
    {e number} of derivations; [why] ({!Prov_query}) finds {e which} ones
    at query time from the live database, so nothing here records
    derivations.  This module keeps what the database cannot answer
    afterwards: per tuple, the batches in which its stored count crossed
    zero (first derived / last deleted), and a ring naming the newest
    batches.  Capture is opt-in and process-global: the maintenance
    entry points call {!batch_begin} once per batch, and the commit loop
    calls {!on_transition} when a tuple's stored count crosses zero.

    {b Cost discipline.}  When capture is off, every hook reduces to one
    atomic load and a predictable branch.  When it is on, each hook takes
    a single global mutex.

    {b Bounds.}  Per-tuple lineage keeps the newest 16 events; the batch
    ring keeps the newest 64 batches. *)

module Tuple = Ivm_relation.Tuple

(** {1 Capture state} *)

(** Capture has been switched on with {!set_enabled} — the hooks' fast
    guard. *)
val enabled : unit -> bool

(** Switching capture on or off resets the store either way. *)
val set_enabled : bool -> unit

(** {1 Hooks (called by the maintenance entry points and the commit)} *)

(** Called once per maintenance batch (when enabled); advances the
    batch sequence number and the batch ring. *)
val batch_begin : algorithm:string -> unit

(** [on_transition ~pred t k] — [t]'s stored count crossed zero during
    commit.  Pseudo-predicates (names starting with ['$']) are
    ignored. *)
val on_transition : pred:string -> Tuple.t -> [ `Derived | `Deleted ] -> unit

(** Clear the whole store (lineage, batch ring). *)
val reset : unit -> unit

(** {1 Queries} *)

type event = { batch : int; kind : [ `Derived | `Deleted ] }

type lineage = {
  first_derived : int option;  (** batch that first derived the tuple *)
  last_deleted : int option;  (** most recent batch that deleted it *)
  events : event list;  (** newest first, bounded *)
}

(** [None] when nothing was ever recorded for the tuple (e.g. it was
    derived before capture was enabled and never transitioned since). *)
val lineage_of : pred:string -> Tuple.t -> lineage option

type batch_info = { seq : int; algorithm : string }

(** The batch ring, newest first. *)
val batches : unit -> batch_info list

(** {1 Accounting} *)

val tuples_tracked : unit -> int

(** Subsystem status for [/statusz]: enabled flag, batches seen, tuples
    tracked, and a rough store footprint in bytes (word-count model, not
    measured). *)
val status_json : unit -> Ivm_obs.Json.t
