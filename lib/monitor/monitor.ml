(** The live monitoring endpoint: a deliberately small HTTP/1.0 server on
    a dedicated domain.

    One accept loop, one request per connection, [Connection: close] —
    no keep-alive, no chunking, no threads-per-connection.  A scrape or
    a [curl] during a long maintenance run is the workload; the server
    only {e reads} shared state (the mutex-protected metrics registry,
    the trace ring, the caller's status callback), so it never blocks
    maintenance.

    Endpoints:
    - [GET /metrics] — Prometheus text exposition 0.0.4 ({!Prometheus});
    - [GET /healthz] — liveness JSON (status, uptime);
    - [GET /statusz] — the caller-supplied status document plus process
      fields (uptime, pid);
    - [GET /trace] — drains the {!Ivm_obs.Trace} ring buffer as a Chrome
      [trace_event] JSON array (repeated GETs see disjoint batches);
    - [GET /requestz] — the {!Ivm_obs.Reqtrace} ring of completed serve
      requests with per-stage latency breakdowns;
    - [GET /why?q=fact] — the caller-supplied provenance EXPLAIN
      callback ([why]/[why not]/[lineage] JSON; [why] needs no capture,
      [lineage] needs [provenance on]); 404 when none is configured.

    {b Robustness.}  {!start} ignores SIGPIPE process-wide (a scrape
    client disconnecting mid-response must surface as [EPIPE], not kill
    the process), and accepted sockets carry a receive/send timeout so a
    client that connects and stalls is dropped instead of wedging the
    single-threaded loop.

    {b Shutdown.}  The OCaml runtime joins every spawned domain at
    process exit, and on Linux [close] alone does not wake a domain
    blocked in [accept].  {!stop} therefore flips the stop flag, calls
    [shutdown] on the listening socket {e and} makes a self-connect (to
    the address actually bound, wildcard mapped to loopback) to
    guarantee the wake-up, then joins the domain.  Every running server
    is also registered for [at_exit] stop, so a process that forgets to
    stop still terminates. *)

module Json = Ivm_obs.Json
module Trace = Ivm_obs.Trace

type config = {
  status : unit -> Json.t;
      (** the [/statusz] document (process fields are added on top) *)
  before_metrics : unit -> unit;
      (** run before each [/metrics]/[/statusz] render — callers mirror
          non-registry state into the registry here *)
  explain : (string -> (Json.t, string) result) option;
      (** serves [GET /why?q=fact] — the percent-decoded [q] value is
          passed verbatim; [Error] renders as a 400 *)
}

let default_config =
  { status = (fun () -> Json.Obj []); before_metrics = ignore; explain = None }

type t = {
  sock : Unix.file_descr;
  port : int;
  wake_addr : Unix.sockaddr;
      (** where {!stop}'s self-connect reaches the listener: the bound
          address from [getsockname], wildcard mapped to loopback *)
  started_at : float;
  stopped : bool Atomic.t;
  mutable domain : unit Domain.t option;
  config : config;
}

let port t = t.port

(* ---------------- HTTP plumbing ---------------- *)

let http_status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | _ -> "Internal Server Error"

let write_all fd (s : string) =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then raise Exit;
    off := !off + w
  done

let respond fd ~code ~content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n"
      code (http_status_text code) content_type (String.length body)
  in
  write_all fd (head ^ body)

(** First line of the request; the headers that follow are read and
    discarded (HTTP/1.0, no body on GET). *)
let read_request_line fd =
  let buf = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let in_first_line = ref true in
  let blank = ref 0 in
  (* read until the terminating CRLFCRLF (or EOF / oversized request) *)
  (try
     while !blank < 4 && Buffer.length buf < 8192 do
       if Unix.read fd byte 0 1 = 0 then raise Exit;
       let c = Bytes.get byte 0 in
       (match c with
       | '\r' | '\n' -> incr blank
       | _ -> blank := 0);
       if !in_first_line then
         if c = '\r' || c = '\n' then in_first_line := false
         else Buffer.add_char buf c
     done
   with Exit -> ());
  Buffer.contents buf

let uptime t = Unix.gettimeofday () -. t.started_at

(* RFC 3986 percent-decoding plus the form-encoding convention [+] = space
   (curl and browsers both produce it for query strings).  Malformed
   escapes pass through literally. *)
let percent_decode (s : string) : string =
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
      match (hex s.[!i + 1], hex s.[!i + 2]) with
      | Some h, Some l ->
        Buffer.add_char b (Char.chr ((h * 16) + l));
        i := !i + 2
      | _ -> Buffer.add_char b '%')
    | '+' -> Buffer.add_char b ' '
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let query_param (query : string) (name : string) : string option =
  List.find_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.sub kv 0 i = name ->
        Some (percent_decode (String.sub kv (i + 1) (String.length kv - i - 1)))
      | _ -> None)
    (String.split_on_char '&' query)

let handle t fd =
  let line = read_request_line fd in
  match String.split_on_char ' ' line with
  | [ meth; target; _ ] | [ meth; target ] ->
    let path, query =
      match String.index_opt target '?' with
      | Some i ->
        ( String.sub target 0 i,
          String.sub target (i + 1) (String.length target - i - 1) )
      | None -> (target, "")
    in
    if meth <> "GET" then
      respond fd ~code:405 ~content_type:"text/plain; charset=utf-8"
        "method not allowed\n"
    else (
      match path with
      | "/metrics" ->
        t.config.before_metrics ();
        respond fd ~code:200
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (Prometheus.render ())
      | "/healthz" ->
        respond fd ~code:200 ~content_type:"application/json"
          (Json.to_string
             (Json.Obj
                [ ("status", Json.Str "ok"); ("uptime_s", Json.Num (uptime t)) ])
          ^ "\n")
      | "/statusz" ->
        t.config.before_metrics ();
        let base =
          match t.config.status () with Json.Obj kvs -> kvs | j -> [ ("status", j) ]
        in
        respond fd ~code:200 ~content_type:"application/json"
          (Json.to_string
             (Json.Obj
                (("uptime_s", Json.Num (uptime t))
                :: ("pid", Json.int (Unix.getpid ()))
                :: ("trace_enabled", Json.Bool (Trace.enabled ()))
                :: ("trace_dropped", Json.int (Trace.dropped ()))
                :: base))
          ^ "\n")
      | "/trace" ->
        respond fd ~code:200 ~content_type:"application/json"
          (Json.to_string (Trace.events_json (Trace.drain ())) ^ "\n")
      | "/requestz" ->
        (* the serve path's completed-request ring (Ivm_obs.Reqtrace):
           last N requests, each with its per-stage latency breakdown *)
        respond fd ~code:200 ~content_type:"application/json"
          (Json.to_string (Ivm_obs.Reqtrace.recent_json ()) ^ "\n")
      | "/why" -> (
        match t.config.explain with
        | None ->
          respond fd ~code:404 ~content_type:"text/plain; charset=utf-8"
            "no explain callback configured\n"
        | Some explain -> (
          match query_param query "q" with
          | None ->
            respond fd ~code:400 ~content_type:"text/plain; charset=utf-8"
              "usage: /why?q=pred(v1,...)\n"
          | Some q -> (
            match explain q with
            | Ok doc ->
              respond fd ~code:200 ~content_type:"application/json"
                (Json.to_string doc ^ "\n")
            | Error e ->
              respond fd ~code:400 ~content_type:"application/json"
                (Json.to_string (Json.Obj [ ("error", Json.Str e) ]) ^ "\n"))))
      | _ ->
        respond fd ~code:404 ~content_type:"text/plain; charset=utf-8"
          "not found: try /metrics /healthz /statusz /trace /requestz /why\n")
  | _ -> ()

(* A client that connects but never sends a request (or stops reading a
   large /metrics body) must not wedge the single-threaded server — and
   must not wedge [stop], whose self-connect only wakes a blocked
   [accept], not a blocked [read]/[write].  Kernel socket timeouts turn
   the stall into a [Unix_error (EAGAIN | EWOULDBLOCK)] that the
   per-client handler swallows. *)
let client_timeout_s = 5.0

let accept_loop t =
  while not (Atomic.get t.stopped) do
    match Unix.accept t.sock with
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED | EINTR), _, _)
      ->
      () (* shutdown in progress, or a client gave up: re-check the flag *)
    | client, _addr ->
      if not (Atomic.get t.stopped) then (
        try
          Fun.protect
            ~finally:(fun () -> Unix.close client)
            (fun () ->
              Unix.setsockopt_float client Unix.SO_RCVTIMEO client_timeout_s;
              Unix.setsockopt_float client Unix.SO_SNDTIMEO client_timeout_s;
              handle t client)
        with _ -> () (* a broken or stalled client must not kill the server *))
      else Unix.close client
  done

(* ---------------- lifecycle ---------------- *)

let running : t list ref = ref []
let running_lock = Mutex.create ()

let stop (t : t) =
  if not (Atomic.exchange t.stopped true) then begin
    (* wake a blocked accept: shutdown + a self-connect (Linux does not
       reliably wake accept on close/shutdown alone) *)
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> Unix.close s)
         (fun () -> Unix.connect s t.wake_addr)
     with Unix.Unix_error _ -> ());
    (match t.domain with
    | Some d ->
      Domain.join d;
      t.domain <- None
    | None -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    Mutex.lock running_lock;
    running := List.filter (fun s -> s != t) !running;
    Mutex.unlock running_lock
  end

let at_exit_registered = ref false

(** Start serving on [port] (0 picks an ephemeral port — read it back
    with {!port}).  Binds [host] (default loopback; the monitor exposes
    process internals, so binding wider is an explicit choice).
    @raise Unix.Unix_error when the address is in use or not bindable. *)
let start ?(host = "127.0.0.1") ?(config = default_config) ~port:requested () : t
    =
  (* A scrape client that disconnects mid-response (curl ^C, Prometheus
     timeout) makes the pending write raise SIGPIPE, whose default
     action kills the whole process — the `with _` in accept_loop only
     catches exceptions, not signals.  Ignored, the write raises
     [Unix_error EPIPE] instead, which that handler swallows. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> () (* no SIGPIPE on this platform *));
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, requested) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock addr;
     Unix.listen sock 16
   with e ->
     Unix.close sock;
     raise e);
  let port, wake_addr =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (bound, p) ->
      (* stop's self-connect must target the address actually bound: a
         wildcard bind is reachable via loopback, anything else only via
         itself *)
      let reach =
        if bound = Unix.inet_addr_any then Unix.inet_addr_loopback else bound
      in
      (p, Unix.ADDR_INET (reach, p))
    | Unix.ADDR_UNIX _ as a -> (requested, a)
  in
  let t =
    {
      sock;
      port;
      wake_addr;
      started_at = Unix.gettimeofday ();
      stopped = Atomic.make false;
      domain = None;
      config;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> accept_loop t));
  Mutex.lock running_lock;
  running := t :: !running;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    (* the runtime joins spawned domains at exit; without this, a process
       that exits with a server running would hang in accept *)
    at_exit (fun () -> List.iter stop !running)
  end;
  Mutex.unlock running_lock;
  t
