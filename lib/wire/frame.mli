(** Length-prefixed, CRC-checked frames — the common envelope of
    write-ahead-log records and [ivm_serve] protocol messages.

    A frame is [u32] payload length, [u32] CRC-32 of the payload, then
    the payload bytes (all little-endian, no padding); see
    [docs/PERSISTENCE.md] §4 and [docs/PROTOCOL.md] §2.  The WAL appends
    {!build} output to a file; the serve protocol writes it to sockets
    with {!send} and reads it back with {!read_fd} — one
    implementation, so the two formats cannot drift. *)

(** The peer closed the descriptor mid-frame (EOF before the declared
    length arrived). *)
exception Closed

(** Declared payload lengths above this (64 MiB) are rejected as
    {!Wire.Corrupt} before any allocation: a desynchronized or hostile
    peer, not a real message. *)
val max_payload : int

(** [build size fill] is the frame of the [size]-byte payload that
    [fill] writes: one exact-size block, the payload written in place
    after the 8-byte header, the CRC computed over it where it lies.
    @raise Invalid_argument if [fill] writes more or fewer than [size]
    bytes ({!Wire.block}). *)
val build : int -> (Wire.writer -> unit) -> string

(** [encode payload] frames an already-encoded payload: the 8-byte
    header followed by [payload], built in one allocation. *)
val encode : string -> string

(** Blocking read of exactly one frame; returns the verified payload.
    [max_payload] (default {!max_payload}) caps the declared length: a
    header naming more is rejected before the payload is allocated — the
    server passes a small cap until a session has said [hello].
    @raise Closed on EOF mid-frame;
    @raise Wire.Corrupt on a length above the cap or a CRC mismatch;
    @raise Unix.Unix_error as the underlying reads do (e.g. a socket
    receive timeout). *)
val read_fd : ?max_payload:int -> Unix.file_descr -> string

(** Blocking write of one complete frame, as {!build} or {!encode}
    return it, straight from the frame's own bytes.  @raise Closed if
    the descriptor stops accepting bytes. *)
val send : Unix.file_descr -> string -> unit
