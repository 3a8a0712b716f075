(* The ivm_serve wire protocol: framed, opcode-tagged messages over the
   shared Ivm_wire codec.  docs/PROTOCOL.md specifies every byte; this
   module is its reference implementation, and test_docs drift-checks
   the spec's opcode table against [opcodes] below. *)

module Wire = Ivm_wire.Wire
module Frame = Ivm_wire.Frame
module Relation = Ivm_relation.Relation

let magic = "IVMSRV01"
let version = 1

type changes = (string * Relation.t) list

type error_code =
  | Bad_version
  | Auth_failed
  | Bad_request
  | Query_failed
  | Invalid_changes
  | Quota_exceeded
  | Shutting_down
  | Internal

let error_code_int = function
  | Bad_version -> 1
  | Auth_failed -> 2
  | Bad_request -> 3
  | Query_failed -> 4
  | Invalid_changes -> 5
  | Quota_exceeded -> 6
  | Shutting_down -> 7
  | Internal -> 8

let error_code_of_int = function
  | 1 -> Some Bad_version
  | 2 -> Some Auth_failed
  | 3 -> Some Bad_request
  | 4 -> Some Query_failed
  | 5 -> Some Invalid_changes
  | 6 -> Some Quota_exceeded
  | 7 -> Some Shutting_down
  | 8 -> Some Internal
  | _ -> None

let error_code_name = function
  | Bad_version -> "bad_version"
  | Auth_failed -> "auth_failed"
  | Bad_request -> "bad_request"
  | Query_failed -> "query_failed"
  | Invalid_changes -> "invalid_changes"
  | Quota_exceeded -> "quota_exceeded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

type request =
  | Hello of { version : int; token : string }
  | Ping
  | Query of { body : string; trace : string }
  | Apply of { changes : changes; trace : string }
  | Subscribe of string
  | Status
  | Close

type response =
  | Hello_ok of { version : int; seq : int }
  | Pong
  | Answer of { columns : string list; rows : Relation.t }
  | Applied of { seq : int; deltas : changes; timings : (string * int) list }
  | Sub_ok of string
  | Status_reply of string
  | Bye
  | Delta of { seq : int; pred : string; delta : Relation.t }
  | Error of { code : error_code; message : string }

(* ---------------- opcodes ---------------- *)

let op_hello = 0x01
let op_ping = 0x02
let op_query = 0x03
let op_apply = 0x04
let op_subscribe = 0x05
let op_status = 0x06
let op_close = 0x07
let op_hello_ok = 0x81
let op_pong = 0x82
let op_answer = 0x83
let op_applied = 0x84
let op_sub_ok = 0x85
let op_status_reply = 0x86
let op_bye = 0x87
let op_delta = 0x88
let op_error = 0x7F

(* The normative opcode table, drift-checked against docs/PROTOCOL.md
   (every row there must appear here and vice versa, and every opcode
   must round-trip through the codec — test/test_docs.ml). *)
let opcodes =
  [
    (op_hello, "hello");
    (op_ping, "ping");
    (op_query, "query");
    (op_apply, "apply");
    (op_subscribe, "subscribe");
    (op_status, "status");
    (op_close, "close");
    (op_error, "error");
    (op_hello_ok, "hello_ok");
    (op_pong, "pong");
    (op_answer, "answer");
    (op_applied, "applied");
    (op_sub_ok, "sub_ok");
    (op_status_reply, "status_reply");
    (op_bye, "bye");
    (op_delta, "delta");
  ]

let opcode_of_request = function
  | Hello _ -> op_hello
  | Ping -> op_ping
  | Query _ -> op_query
  | Apply _ -> op_apply
  | Subscribe _ -> op_subscribe
  | Status -> op_status
  | Close -> op_close

let opcode_of_response = function
  | Hello_ok _ -> op_hello_ok
  | Pong -> op_pong
  | Answer _ -> op_answer
  | Applied _ -> op_applied
  | Sub_ok _ -> op_sub_ok
  | Status_reply _ -> op_status_reply
  | Bye -> op_bye
  | Delta _ -> op_delta
  | Error _ -> op_error

(* ---------------- encoding ---------------- *)

(* Every message is sized first, then written once into an exact-size
   block: the payload alone for [encode_*], the whole frame for
   [*_frame] (what the server and client put on the socket). *)

(* The trace-context extension (docs/PROTOCOL.md §9): an {e optional
   trailing} string on query/apply.  Decoders reject trailing bytes, so
   backward compatibility hinges on position: a v1 peer that never sends
   the field produces exactly the old bytes, and one that cannot parse
   it is never sent it (the empty context encodes as {e absence}, and
   [Applied] timings are emitted only when the request carried a
   context). *)
let trace_size trace = if trace = "" then 0 else Wire.string_size trace
let put_trace w trace = if trace <> "" then Wire.put_string w trace

let get_trace r = if Wire.remaining r > 0 then Wire.get_string r else ""

let timings_size (timings : (string * int) list) =
  if timings = [] then 0
  else List.fold_left (fun acc (stage, _) -> acc + Wire.string_size stage + 8) 4 timings

let put_timings w (timings : (string * int) list) =
  if timings <> [] then begin
    Wire.put_u32 w (List.length timings);
    List.iter
      (fun (stage, ns) ->
        Wire.put_string w stage;
        Wire.put_i64 w ns)
      timings
  end

let get_timings r =
  if Wire.remaining r > 0 then
    List.init (Wire.get_u32 r) (fun _ ->
        let stage = Wire.get_string r in
        let ns = Wire.get_i64 r in
        (stage, ns))
  else []

let request_size (req : request) =
  1
  +
  match req with
  | Hello { token; _ } -> String.length magic + 4 + Wire.string_size token
  | Ping | Status | Close -> 0
  | Query { body; trace } -> Wire.string_size body + trace_size trace
  | Apply { changes; trace } -> Wire.changes_size changes + trace_size trace
  | Subscribe pred -> Wire.string_size pred

let put_request w (req : request) =
  Wire.put_u8 w (opcode_of_request req);
  match req with
  | Hello { version; token } ->
    Wire.put_raw w magic;
    Wire.put_u32 w version;
    Wire.put_string w token
  | Ping | Status | Close -> ()
  | Query { body; trace } ->
    Wire.put_string w body;
    put_trace w trace
  | Apply { changes; trace } ->
    Wire.put_changes w changes;
    put_trace w trace
  | Subscribe pred -> Wire.put_string w pred

let answer_size ~columns rows =
  1 + 4
  + List.fold_left (fun acc c -> acc + Wire.string_size c) 0 columns
  + Wire.relation_size rows

let response_size (resp : response) =
  match resp with
  | Hello_ok _ -> 1 + 4 + 8
  | Pong | Bye -> 1
  | Answer { columns; rows } -> answer_size ~columns rows
  | Applied { deltas; timings; _ } ->
    1 + 8 + Wire.changes_size deltas + timings_size timings
  | Sub_ok s | Status_reply s -> 1 + Wire.string_size s
  | Delta { pred; delta; _ } ->
    1 + 8 + Wire.string_size pred + Wire.relation_size delta
  | Error { message; _ } -> 1 + 1 + Wire.string_size message

let put_response w (resp : response) =
  Wire.put_u8 w (opcode_of_response resp);
  match resp with
  | Hello_ok { version; seq } ->
    Wire.put_u32 w version;
    Wire.put_i64 w seq
  | Pong | Bye -> ()
  | Answer { columns; rows } ->
    Wire.put_u32 w (List.length columns);
    List.iter (Wire.put_string w) columns;
    Wire.put_relation w rows
  | Applied { seq; deltas; timings } ->
    Wire.put_i64 w seq;
    Wire.put_changes w deltas;
    put_timings w timings
  | Sub_ok s | Status_reply s -> Wire.put_string w s
  | Delta { seq; pred; delta } ->
    Wire.put_i64 w seq;
    Wire.put_string w pred;
    Wire.put_relation w delta
  | Error { code; message } ->
    Wire.put_u8 w (error_code_int code);
    Wire.put_string w message

let encode_request req =
  Bytes.unsafe_to_string (Wire.block (request_size req) (fun w -> put_request w req))

let encode_response resp =
  Bytes.unsafe_to_string (Wire.block (response_size resp) (fun w -> put_response w resp))

let request_frame req = Frame.build (request_size req) (fun w -> put_request w req)
let response_frame resp = Frame.build (response_size resp) (fun w -> put_response w resp)

(* ---------------- decoding ---------------- *)

let get_magic r =
  let m =
    String.init (String.length magic) (fun _ -> Char.chr (Wire.get_u8 r))
  in
  if m <> magic then
    Wire.corrupt r (Printf.sprintf "bad magic %S (want %S)" m magic)

let finish r v =
  if Wire.remaining r <> 0 then
    Wire.corrupt r
      (Printf.sprintf "%d trailing bytes in message" (Wire.remaining r));
  v

let decode_request (payload : string) : request =
  let r = Wire.reader payload in
  let op = Wire.get_u8 r in
  finish r
  @@
  if op = op_hello then begin
    get_magic r;
    let version = Wire.get_u32 r in
    let token = Wire.get_string r in
    Hello { version; token }
  end
  else if op = op_ping then Ping
  else if op = op_query then begin
    let body = Wire.get_string r in
    Query { body; trace = get_trace r }
  end
  else if op = op_apply then begin
    let changes = Wire.get_changes r in
    Apply { changes; trace = get_trace r }
  end
  else if op = op_subscribe then Subscribe (Wire.get_string r)
  else if op = op_status then Status
  else if op = op_close then Close
  else Wire.corrupt r (Printf.sprintf "bad request opcode 0x%02x" op)

let decode_response (payload : string) : response =
  let r = Wire.reader payload in
  let op = Wire.get_u8 r in
  finish r
  @@
  if op = op_hello_ok then begin
    let version = Wire.get_u32 r in
    let seq = Wire.get_i64 r in
    Hello_ok { version; seq }
  end
  else if op = op_pong then Pong
  else if op = op_answer then begin
    let columns = List.init (Wire.get_u32 r) (fun _ -> Wire.get_string r) in
    let rows = Wire.get_relation r in
    Answer { columns; rows }
  end
  else if op = op_applied then begin
    let seq = Wire.get_i64 r in
    let deltas = Wire.get_changes r in
    Applied { seq; deltas; timings = get_timings r }
  end
  else if op = op_sub_ok then Sub_ok (Wire.get_string r)
  else if op = op_status_reply then Status_reply (Wire.get_string r)
  else if op = op_bye then Bye
  else if op = op_delta then begin
    let seq = Wire.get_i64 r in
    let pred = Wire.get_string r in
    let delta = Wire.get_relation r in
    Delta { seq; pred; delta }
  end
  else if op = op_error then begin
    let code =
      match error_code_of_int (Wire.get_u8 r) with
      | Some c -> c
      | None -> Wire.corrupt r "bad error code"
    in
    let message = Wire.get_string r in
    Error { code; message }
  end
  else Wire.corrupt r (Printf.sprintf "bad response opcode 0x%02x" op)
