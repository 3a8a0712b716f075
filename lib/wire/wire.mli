(** Binary wire codec shared by the snapshot, the write-ahead log, and
    the [ivm_serve] client/server protocol.

    Every multi-byte integer is {b little-endian} and fixed-width; strings
    and relations are length-prefixed.  The exact byte layout is specified
    in [docs/PERSISTENCE.md] (storage) and [docs/PROTOCOL.md] (network) —
    this module is their shared reference implementation, and the formats
    are a compatibility contract: changing any encoding requires bumping
    {!version} and the containing artifact's own version.

    Encoding is two passes over one exact-size block: the caller sizes
    the message with the [*_size] functions, {!block} allocates exactly
    that many bytes, and the [put_*] functions fill them in order.  A
    size pass and a write pass that disagree raise rather than produce a
    short or overlong artifact.  Decoders read from a [string] through a
    mutable cursor and raise {!Corrupt} (never [Invalid_argument] or an
    out-of-bounds crash) on malformed input, so callers can treat any
    decoding failure as a damaged artifact. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation

(** Malformed bytes: truncation, a bad tag, a negative length… the
    message says what was being decoded and where. *)
exception Corrupt of string

(** Codec generation, currently [1].  Containing artifacts (snapshot,
    WAL, serve protocol) embed it in their own version handshakes;
    readers reject generations they do not know. *)
val version : int

(** {2 Sizing}

    The number of bytes the matching [put_*] below writes, computed
    without encoding. *)

val string_size : string -> int
val value_size : Value.t -> int
val relation_size : Relation.t -> int
val changes_size : (string * Relation.t) list -> int

(** {2 Encoding} *)

(** A write cursor over one exact-size block. *)
type writer

(** [block n fill] allocates exactly [n] bytes, runs [fill] on a writer
    at offset 0 and returns the filled block.
    @raise Invalid_argument if [fill] writes more or fewer than [n]
    bytes: the size pass and the write pass disagree. *)
val block : int -> (writer -> unit) -> bytes

val put_u8 : writer -> int -> unit
val put_u32 : writer -> int -> unit

(** 64-bit two's-complement; accepts any OCaml [int]. *)
val put_i64 : writer -> int -> unit

(** The bytes as they are, no length prefix (a magic string, a payload
    being framed). *)
val put_raw : writer -> string -> unit

(** [u32] byte length, then the raw bytes. *)
val put_string : writer -> string -> unit

(** One tagged value: tag byte [0]=Int, [1]=Float (IEEE-754 bits),
    [2]=Str, [3]=Bool. *)
val put_value : writer -> Value.t -> unit

(** The values in order, no length prefix (the container knows the
    arity). *)
val put_tuple : writer -> Tuple.t -> unit

(** Arity ([u32]), row count ([u32]), then per row the tuple followed by
    its signed count ([i64]).  Rows are written in {!Relation.to_sorted_list}
    order, so equal relations encode to equal bytes. *)
val put_relation : writer -> Relation.t -> unit

(** A change batch, as a WAL record body and the [apply]/[applied]
    messages carry it: entry count ([u32]), then per entry the predicate
    name and its delta relation. *)
val put_changes : writer -> (string * Relation.t) list -> unit

(** {2 Decoding} *)

type reader

(** [reader ?pos s] starts a cursor at [pos] (default 0). *)
val reader : ?pos:int -> string -> reader

(** Cursor position (bytes consumed from the start of the string). *)
val pos : reader -> int

(** Bytes remaining. *)
val remaining : reader -> int

val get_u8 : reader -> int
val get_u32 : reader -> int
val get_i64 : reader -> int
val get_string : reader -> string
val get_value : reader -> Value.t
val get_tuple : reader -> arity:int -> Tuple.t

(** @raise Corrupt also when the declared row count cannot fit in the
    remaining bytes (a row takes at least [2 * arity + 8]); the table is
    sized only after that check, so a hostile header cannot force a large
    allocation. *)
val get_relation : reader -> Relation.t

(** Walk past one relation, making every check {!get_relation} makes
    (arity and row-count bounds, value tags, bool bytes, string lengths,
    truncation) without building it; returns its arity. *)
val skip_relation : reader -> int

(** Inverse of {!put_changes}. *)
val get_changes : reader -> (string * Relation.t) list

(** Fail decoding with a {!Corrupt} carrying the cursor position. *)
val corrupt : reader -> string -> 'a
