(** Versioned, checksummed binary snapshots of a whole database.

    A snapshot captures everything needed to reopen a
    [Ivm_eval.Database.t] with {b zero re-evaluation}: the program rules,
    the declared base relations, the semantics flag, the DISTINCT view
    set, {e every} stored relation — base and derived — with its signed
    derivation counts, and the signatures of the registered incremental
    aggregate indexes (their accumulator states are rebuilt
    deterministically from the loaded source relations).

    The byte format (magic ["IVMSNAP1"], version [u32], payload, trailing
    CRC-32 over everything before it) is specified field-by-field in
    [docs/PERSISTENCE.md].  Version 2 writes the {!counts} mark; a
    version-1 image, written before the mark existed, decodes as
    unmarked ([None]).  Writing is atomic: the bytes go to a temporary
    file in the same directory, are fsync'd, and renamed over the
    destination, so a crash mid-save leaves the previous snapshot intact.

    [seq] is the write-ahead-log sequence number the snapshot covers
    through: recovery replays only log records with a higher sequence
    (see {!Wal} and {!Store}). *)

exception Corrupt of string

val magic : string
val version : int

(** What the stored counts are, as the maintainer that wrote the image
    kept them: bit 1 of the semantics byte. *)
type counts =
  | Exact  (** exact derivation counts (one-step through recursion) in every view *)
  | Stale  (** written under explicit DRed: sets exact, counts not *)

(** Encode to bytes (including magic, version and CRC trailer). *)
val encode : counts:counts -> seq:int -> Ivm_eval.Database.t -> string

(** A verified image whose views are decoded on demand. *)
type image = {
  db : Ivm_eval.Database.t;
      (** the base relations, the DISTINCT marks, the registered
          aggregate indexes and the views they read; every other view
          is empty until [views] is forced *)
  seq : int;
  counts : counts option;  (** the image's mark; [None] for version 1 *)
  views : unit Lazy.t;  (** forcing it decodes the remaining views into [db] *)
}

(** Verify the whole image and decode all but its views.  Every check
    {!decode} makes is made here: the CRC over the whole image first,
    then the structure of every relation, views included — arity and
    row-count bounds, value tags, string lengths, each view's arity
    against the program's — and no trailing bytes.  Forcing [views]
    then cannot fail on an image [read] accepted.
    @raise Corrupt on a bad magic, version, CRC or structure. *)
val read : string -> image

(** Decode and verify; the returned database is fully materialized, with
    the image's mark ([None] for version 1): {!read}, views forced.
    @raise Corrupt on a bad magic, version, CRC or structure. *)
val decode : string -> Ivm_eval.Database.t * int * counts option

(** [save ~counts ~path ~seq db] — atomic write-fsync-rename.
    Returns the encoded size in bytes. *)
val save : counts:counts -> path:string -> seq:int -> Ivm_eval.Database.t -> int

(** @raise Corrupt as {!decode}; @raise Sys_error if unreadable. *)
val load : path:string -> Ivm_eval.Database.t * int * counts option

(** {!read} of the file at [path].
    @raise Corrupt as {!read}; @raise Sys_error if unreadable. *)
val load_image : path:string -> image
