(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320], reflected) — the checksum
    guarding every persistent artifact of the store: the snapshot trailer
    and each write-ahead-log record frame (see [docs/PERSISTENCE.md]).

    The implementation is slicing-by-8 (eight 256-entry [int] tables,
    eight bytes folded per step, the register in a native [int]); it
    allocates nothing per byte — only the boxed [int32] result of each
    call — and has no external dependency.  Check values:
    [digest "" = 0l] and [digest "123456789" = 0xCBF43926l]. *)

(** [update crc s pos len] folds [len] bytes of [s] starting at [pos] into
    a running CRC ([0l] to start).  @raise Invalid_argument on a range
    outside [s]. *)
val update : int32 -> string -> int -> int -> int32

(** CRC-32 of a whole string. *)
val digest : string -> int32

(** CRC-32 of [Bytes.sub_string b pos len] without the copy. *)
val update_bytes : int32 -> bytes -> int -> int -> int32
