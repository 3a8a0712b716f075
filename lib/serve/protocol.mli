(** The [ivm_serve] wire protocol: opcode-tagged request/response
    messages over the shared {!Ivm_wire} codec, carried in
    {!Ivm_wire.Frame} envelopes (u32 length, u32 CRC-32, payload).

    [docs/PROTOCOL.md] specifies every byte — this module is its
    reference implementation, and [test/test_docs.ml] drift-checks the
    spec's opcode table against {!opcodes} and round-trips every opcode
    through the codec.  The first message on a connection must be
    [Hello] (magic {!magic}, version {!version}, auth token); everything
    else is rejected until the handshake succeeds. *)

module Relation = Ivm_relation.Relation

val magic : string

(** Protocol version, currently [1].  The server rejects a [Hello]
    carrying any other version with [Error Bad_version]. *)
val version : int

(** One change batch: per-predicate signed deltas, structurally
    [Ivm.Changes.t] and encoded exactly like a WAL record body. *)
type changes = (string * Relation.t) list

type error_code =
  | Bad_version  (** handshake version (or magic) not understood *)
  | Auth_failed  (** token did not match the server's *)
  | Bad_request  (** malformed or out-of-order message *)
  | Query_failed  (** query parse/safety/unknown-predicate failure *)
  | Invalid_changes  (** batch rejected by validation, nothing applied *)
  | Quota_exceeded  (** session or batch quota hit *)
  | Shutting_down  (** server is draining; retry elsewhere *)
  | Internal  (** unexpected server-side failure *)

val error_code_int : error_code -> int
val error_code_of_int : int -> error_code option
val error_code_name : error_code -> string

type request =
  | Hello of { version : int; token : string }
  | Ping
  | Query of { body : string; trace : string }
      (** [body]: ad-hoc Datalog body, e.g. ["hop(a, X)"].  [trace]: the
          optional trace context ([""] = absent, encoded as {e no}
          trailing field, so the bytes a v1 peer sends and expects are
          unchanged — docs/PROTOCOL.md §9) *)
  | Apply of { changes : changes; trace : string }
      (** one atomic batch; group-committed.  [trace] as in [Query]; a
          non-empty context also opts the [Applied] reply into stage
          timings *)
  | Subscribe of string  (** push per-batch deltas of this view *)
  | Status
  | Close

type response =
  | Hello_ok of { version : int; seq : int }
      (** [seq]: last durable WAL sequence number *)
  | Pong
  | Answer of { columns : string list; rows : Relation.t }
  | Applied of { seq : int; deltas : changes; timings : (string * int) list }
      (** [seq]: the group-commit sequence this batch is durable at.
          [timings]: per-stage nanoseconds ([[]] = absent on the wire),
          sent only when the request carried a trace context — a client
          that cannot decode the field never receives it *)
  | Sub_ok of string
  | Status_reply of string  (** a JSON document *)
  | Bye
  | Delta of { seq : int; pred : string; delta : Relation.t }
      (** pushed to subscribers after each committed batch *)
  | Error of { code : error_code; message : string }

(** The normative opcode table ([(code, name)]), in spec order; the one
    [docs/PROTOCOL.md] §3 must mirror row for row. *)
val opcodes : (int * string) list

val opcode_of_request : request -> int
val opcode_of_response : response -> int

(** Encode to a frame payload, sized first and written once into an
    exact-size block. *)
val encode_request : request -> string

val encode_response : response -> string

(** The complete frame ({!Ivm_wire.Frame.build}) of a message: header,
    payload and CRC in one exact-size block, ready for
    {!Ivm_wire.Frame.send}.  Byte-identical to
    [Frame.encode (encode_request req)] without the intermediate
    payload string. *)
val request_frame : request -> string

val response_frame : response -> string

(** The length of an [Answer]'s {!encode_response} payload, computed
    without encoding it. *)
val answer_size : columns:string list -> Relation.t -> int

(** Decode a verified frame payload.
    @raise Ivm_wire.Wire.Corrupt on a bad opcode, truncated body, or
    trailing bytes. *)
val decode_request : string -> request

val decode_response : string -> response
