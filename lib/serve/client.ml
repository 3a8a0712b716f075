(* Blocking client for the ivm_serve protocol.  One socket, synchronous
   request/response; Delta pushes that arrive while a call is waiting
   for its reply are buffered and handed out by [next_delta]. *)

module Frame = Ivm_wire.Frame
module Relation = Ivm_relation.Relation

exception Server_error of Protocol.error_code * string

exception Unexpected of string

type t = {
  fd : Unix.file_descr;
  pending : (int * string * Relation.t) Queue.t;
  mutable hello_seq : int;
  mutable closed : bool;
}

let read_response c : Protocol.response =
  Protocol.decode_response (Frame.read_fd c.fd)

let send_request c (req : Protocol.request) =
  Frame.send c.fd (Protocol.request_frame req)

(** Wait for the reply to the call in flight, buffering delta pushes. *)
let rec await c (expect : Protocol.response -> 'a option) : 'a =
  match read_response c with
  | Protocol.Delta { seq; pred; delta } ->
    Queue.add (seq, pred, delta) c.pending;
    await c expect
  | Protocol.Error { code; message } -> raise (Server_error (code, message))
  | Protocol.Bye ->
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    raise (Server_error (Protocol.Shutting_down, "server closed the session"))
  | resp -> (
    match expect resp with
    | Some v -> v
    | None ->
      raise
        (Unexpected
           (Printf.sprintf "unexpected response opcode 0x%02x"
              (Protocol.opcode_of_response resp))))

let connect ?(host = "127.0.0.1") ?(token = "") ~port () : t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let c = { fd; pending = Queue.create (); hello_seq = 0; closed = false } in
  (try
     send_request c (Protocol.Hello { version = Protocol.version; token });
     c.hello_seq <-
       await c (function
         | Protocol.Hello_ok { seq; _ } -> Some seq
         | _ -> None)
   with e ->
     (try Unix.close c.fd with Unix.Unix_error _ -> ());
     raise e);
  c

let seq c = c.hello_seq

let ping c =
  send_request c Protocol.Ping;
  await c (function Protocol.Pong -> Some () | _ -> None)

let query ?(trace = "") c body =
  send_request c (Protocol.Query { body; trace });
  await c (function
    | Protocol.Answer { columns; rows } -> Some (columns, rows)
    | _ -> None)

(* [trace = ""] sends byte-for-byte the v1 frame (no trailing field), so
   an unmodified server keeps working; a non-empty trace context opts
   the Applied reply into the per-stage timings *)
let apply ?(trace = "") c (changes : Protocol.changes) =
  send_request c (Protocol.Apply { changes; trace });
  await c (function
    | Protocol.Applied { seq; deltas; _ } -> Some (seq, deltas)
    | _ -> None)

let next_trace = Atomic.make 1

let apply_timed ?trace c (changes : Protocol.changes) =
  (* timings require a trace context, so make one up when none given *)
  let trace =
    match trace with
    | Some s when s <> "" -> s
    | _ -> Printf.sprintf "c-%d" (Atomic.fetch_and_add next_trace 1)
  in
  send_request c (Protocol.Apply { changes; trace });
  await c (function
    | Protocol.Applied { seq; deltas; timings } -> Some (seq, deltas, timings)
    | _ -> None)

let subscribe c pred =
  send_request c (Protocol.Subscribe pred);
  await c (function
    | Protocol.Sub_ok p when String.equal p pred -> Some ()
    | _ -> None)

let status c =
  send_request c Protocol.Status;
  await c (function Protocol.Status_reply json -> Some json | _ -> None)

let next_delta ?(timeout = 1.0) c : (int * string * Relation.t) option =
  if not (Queue.is_empty c.pending) then Some (Queue.pop c.pending)
  else if c.closed then None
  else
    match Unix.select [ c.fd ] [] [] timeout with
    | [], _, _ -> None
    | exception Unix.Unix_error (EINTR, _, _) -> None
    | _ -> (
      match read_response c with
      | Protocol.Delta { seq; pred; delta } -> Some (seq, pred, delta)
      | Protocol.Bye ->
        c.closed <- true;
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        None
      | Protocol.Error { code; message } -> raise (Server_error (code, message))
      | resp ->
        raise
          (Unexpected
             (Printf.sprintf "unsolicited response opcode 0x%02x"
                (Protocol.opcode_of_response resp))))

let close c =
  if not c.closed then begin
    c.closed <- true;
    (try
       send_request c Protocol.Close;
       (* drain until the Bye ack (buffering nothing — we are done) *)
       let rec drain () =
         match read_response c with
         | Protocol.Bye -> ()
         | _ -> drain ()
       in
       drain ()
     with _ -> ());
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end
