(** Durable views: a directory holding one {!Snapshot} plus one {!Wal}.

    Layout: [dir/snapshot.ivm] (the last compacted state) and
    [dir/wal.ivm] (validated change batches appended {e before} the
    maintenance algorithm applies them).  Restart after a short tail is
    therefore a [load + replay-Δ] maintenance run — the paper's
    "maintenance beats recomputation" argument applied to recovery —
    instead of re-deriving every view from the base relations; after a
    tail that is a large share of the data, the heuristic of inertia
    (Section 1) turns the other way, and the caller evaluates the views
    once from the recovered base relations without decoding the
    snapshot's.

    The caller (normally [Ivm.View_manager]) drives the protocol:

    - {!initialize} a fresh directory from a fully materialized database;
    - {!open_} an existing one: the snapshot image comes back with the
      surviving log tail, which the caller replays through its normal
      maintenance path (or, for a large tail, folds into the base
      relations before evaluating the views once), then keeps the
      handle for appending;
    - {!append} each validated change batch before applying it;
    - {!compact} folds the log into a fresh snapshot (also the rotation
      point after rule changes, which are not logged).

    Torn or checksum-failing log tails are truncated on open and reported
    in {!recovery}; a crash between snapshot rename and log reset leaves
    records the snapshot already covers, which {!open_} skips by sequence
    number. *)

type changes = Wal.changes

exception Corrupt of string
(** A snapshot or log header too damaged to recover from ({!Wal.Corrupt}
    / {!Snapshot.Corrupt} re-raised under one name). *)

type t

type recovery = {
  snapshot_seq : int;  (** WAL sequence the snapshot covers through *)
  replayed : changes list;  (** surviving log tail, in append order *)
  skipped_records : int;  (** records the snapshot already covered *)
  truncated_bytes : int;  (** torn/corrupt tail bytes dropped *)
  damage : string option;  (** what stopped the log scan, if anything *)
  counts : Snapshot.counts option;
      (** what the snapshot's stored counts are; [None] for a version-1 image *)
}

type status = {
  dir : string;
  seq : int;  (** last durable sequence number *)
  snapshot_seq : int;
  snapshot_bytes : int;
  wal_records : int;  (** live records in the log tail *)
  wal_bytes : int;  (** log file size, header included *)
}

val snapshot_file : string -> string
val wal_file : string -> string

(** Is [dir] an initialized store (has a snapshot)? *)
val exists : string -> bool

(** Create [dir] (and parents) if needed, snapshot [db] into it, open an
    empty log; [counts] marks the snapshot ({!Snapshot.counts}).
    @raise Invalid_argument if [dir] is already a store. *)
val initialize : counts:Snapshot.counts -> dir:string -> Ivm_eval.Database.t -> t

(** Open an existing store: verify the whole snapshot ({!Snapshot.read}),
    truncate any damaged log tail, and return the image, its views not
    yet decoded, plus the records to replay.  The caller either forces
    [image.views] and applies [recovery.replayed] (in order) through its
    maintenance path, or applies the records to the base relations and
    evaluates the views from them; both reach the durable state.
    @raise Corrupt if the snapshot or the log header is unrecoverable. *)
val open_ : dir:string -> Snapshot.image * t * recovery

(** Log one validated change batch.  [~sync:true] (the default) fsyncs
    before returning; [~sync:false] defers the fsync for a group commit —
    append the whole queue, then make it all durable with one {!sync}
    (see {!Wal.append}). *)
val append : ?sync:bool -> t -> changes -> unit

(** Force every deferred append durable — the single fsync that commits
    a group. *)
val sync : t -> unit

(** Fold the log into a fresh snapshot of [db] (which must reflect every
    appended batch) and reset the log; [counts] marks the snapshot
    ({!Snapshot.counts}). *)
val compact : counts:Snapshot.counts -> t -> Ivm_eval.Database.t -> unit

val status : t -> status
val dir : t -> string
val close : t -> unit

val pp_recovery : Format.formatter -> recovery -> unit
val pp_status : Format.formatter -> status -> unit
