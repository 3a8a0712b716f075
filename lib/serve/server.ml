(* The multi-client view server.

   Architecture (ARCHITECTURE.md §16):

   - one {b accept domain} hands incoming connections to the reader pool;
   - a small pool of {b reader domains} multiplexes all client sessions
     with [select]: each session is owned by exactly one reader, which
     performs {e every} read and write on its socket — queries are
     answered inline against the published snapshot, applies are handed
     to the writer;
   - one {b writer domain} drains the apply queue and commits the whole
     queue as a group: per batch normalize → WAL append (no fsync) →
     maintain, then {e one} fsync for the group
     ([View_manager.apply_group]), then an atomic publish of a fresh
     immutable snapshot, then acks and subscriber deltas are routed back
     through each session's owning reader.

   Readers never touch the live database (they query the snapshot in
   [published], swapped atomically after each group commit), and the
   writer never touches a socket (acks travel via per-reader outboxes),
   so a stalled or disconnecting client can only ever stall its own
   reader for one socket-timeout — never the writer, never maintenance.
   Invariant 11: because publish and ack both happen after the group's
   fsync, no client observes a batch the WAL has not made durable. *)

module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Database = Ivm_eval.Database
module Query = Ivm_eval.Query
module Program = Ivm_datalog.Program
module Relation = Ivm_relation.Relation
module Frame = Ivm_wire.Frame
module Wire = Ivm_wire.Wire
module Json = Ivm_obs.Json
module Metrics = Ivm_obs.Metrics
module Reqtrace = Ivm_obs.Reqtrace

type config = {
  auth_token : string option;
  max_sessions : int;
  max_batch_tuples : int;
  readers : int;
  client_timeout_s : float;
  max_outbox : int;
  publish_max_wait_s : float;
      (** how long the writer waits for a pinned reader before a publish
          falls back to a full snapshot copy ({!Snap_pub}) *)
  full_publish : bool;
      (** benchmarking escape hatch: publish untracked, forcing the
          pre-incremental full-copy path on every group *)
}

let default_config =
  {
    auth_token = None;
    max_sessions = 64;
    max_batch_tuples = 100_000;
    readers = 2;
    client_timeout_s = 5.0;
    max_outbox = 1024;
    publish_max_wait_s = 0.05;
    full_publish = false;
  }

type session = {
  sid : int;
  fd : Unix.file_descr;
  mutable authed : bool;
  mutable subs : string list;  (** views this session wants deltas of *)
  mutable alive : bool;
      (** flipped (and the fd closed) only by the owning reader; the
          writer routes messages by session struct, so a dead session's
          pending messages are skipped, never written to a reused fd *)
  mutable outq : int;
      (** messages queued in the owning reader's outbox for this
          session (guarded by the reader's lock) — the bound
          [config.max_outbox] applies to *)
  mutable doomed : bool;
      (** outbox overflowed: the writer stops routing deltas here and
          the owning reader disconnects the session at its next pass *)
  (* per-session request stats (reqtrace): mutated only on the owning
     reader, read racily by [status_json] — same point-in-time contract
     as the rest of the status document *)
  mutable reqs : int;
  mutable req_ns : int;
  mutable req_max_ns : int;
}

(** One outbox entry: the response plus the request-trace handle to
    complete once the frame is on the wire ([routed] is the enqueue
    time, so the [ack] stage spans routing, reader wake-up, and the
    socket write). *)
type outmsg = {
  om_s : session;
  om_resp : Protocol.response;
  om_rq : Reqtrace.t option;
  om_routed : float;
}

type reader = {
  idx : int;
  lock : Mutex.t;
  mutable sessions : session list;
  outbox : outmsg Queue.t;
      (** messages other domains (writer, accept) want sent; drained and
          written by this reader, the only domain that touches the fds *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable domain : unit Domain.t option;
}

type job = {
  js : session;
  changes : Protocol.changes;
  rq : Reqtrace.t option;  (** request trace, riding with the batch *)
  echo_timings : bool;  (** client sent a trace context: return timings *)
  enq : float;  (** enqueue time — start of the [queue] stage *)
}

type t = {
  vm : Vm.t;
  config : config;
  lsock : Unix.file_descr;
  port : int;
  wake_addr : Unix.sockaddr;
  pub : Snap_pub.t;
      (** left-right snapshot publisher: readers pin per-query, the
          writer patches the shadow once per group commit *)
  published_seq : int Atomic.t;
  stopped : bool Atomic.t;
  pool : reader array;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable accept_domain : unit Domain.t option;
  mutable writer_domain : unit Domain.t option;
  started_at : float;
  next_sid : int Atomic.t;
  (* stats mirrored into the metrics registry *)
  accepted : int Atomic.t;
  live_sessions : int Atomic.t;
  group_commits : int Atomic.t;
  committed_batches : int Atomic.t;
  deltas_pushed : int Atomic.t;
  deltas_dropped : int Atomic.t;
  protocol_errors : int Atomic.t;
}

type stats = {
  sessions : int;
  accepted : int;
  group_commits : int;
  committed_batches : int;
  deltas_pushed : int;
  deltas_dropped : int;
  protocol_errors : int;
}

let port t = t.port
let manager t = t.vm
let publisher t = t.pub

let stats (t : t) =
  {
    sessions = Atomic.get t.live_sessions;
    accepted = Atomic.get t.accepted;
    group_commits = Atomic.get t.group_commits;
    committed_batches = Atomic.get t.committed_batches;
    deltas_pushed = Atomic.get t.deltas_pushed;
    deltas_dropped = Atomic.get t.deltas_dropped;
    protocol_errors = Atomic.get t.protocol_errors;
  }

(* ---------------- metrics ---------------- *)

let sessions_g =
  Metrics.gauge "ivm_serve_sessions" ~help:"Connected client sessions"

let accepted_c =
  Metrics.counter "ivm_serve_sessions_total"
    ~help:"Client connections accepted since start"

let requests_c op =
  Metrics.counter ~labels:[ ("op", op) ] "ivm_serve_requests_total"
    ~help:"Protocol requests handled, by opcode"

let commits_c =
  Metrics.counter "ivm_serve_group_commits_total"
    ~help:"Group commits (one fsync each)"

let batches_c =
  Metrics.counter "ivm_serve_committed_batches_total"
    ~help:"Client batches committed (>= 1 per group commit)"

let group_size_h =
  Metrics.histogram "ivm_serve_group_size"
    ~help:"Batches per group commit (fsync amortization)"

let deltas_c =
  Metrics.counter "ivm_serve_deltas_pushed_total"
    ~help:"Delta messages pushed to subscribers"

let deltas_dropped_c =
  Metrics.counter "ivm_serve_deltas_dropped_total"
    ~help:"Delta messages dropped on subscriber outbox overflow"

let errors_c =
  Metrics.counter "ivm_serve_protocol_errors_total"
    ~help:"Error responses sent to clients"

let queue_depth_g =
  Metrics.gauge "ivm_serve_queue_depth"
    ~help:"Apply batches waiting for the writer domain"

let queue_wait_g =
  Metrics.gauge "ivm_serve_queue_wait_ns"
    ~help:"Longest queue wait in the last drained group, nanoseconds"

(* ---------------- outbox routing ---------------- *)

let poke r =
  (* a full pipe already guarantees a pending wake-up *)
  try ignore (Unix.write r.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

let drain_wake r =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read r.wake_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  go ()

(** Queue [resp] for [s] on its owning reader; the reader performs the
    actual socket write (and completes [rq] after it).  Safe from any
    domain.  Acks and errors always enqueue — only delta pushes go
    through the bounded {!route_delta}. *)
let route ?rq (t : t) (s : session) (resp : Protocol.response) =
  let r = t.pool.(s.sid mod Array.length t.pool) in
  Mutex.lock r.lock;
  s.outq <- s.outq + 1;
  Queue.add
    { om_s = s; om_resp = resp; om_rq = rq; om_routed = Unix.gettimeofday () }
    r.outbox;
  Mutex.unlock r.lock;
  poke r

(** Bounded delta routing: a subscriber whose outbox already holds
    [config.max_outbox] pending messages gets this delta {e dropped}
    (counted in [ivm_serve_deltas_dropped_total]) and is marked doomed —
    its owning reader disconnects it at the next pass.  An unbounded
    outbox would otherwise let one slow subscriber absorb the server's
    memory at the writer's publish rate (ROADMAP backpressure item). *)
let route_delta (t : t) (s : session) (resp : Protocol.response) =
  let r = t.pool.(s.sid mod Array.length t.pool) in
  Mutex.lock r.lock;
  let dropped = s.doomed || s.outq >= t.config.max_outbox in
  if dropped then s.doomed <- true
  else begin
    s.outq <- s.outq + 1;
    Queue.add
      { om_s = s; om_resp = resp; om_rq = None;
        om_routed = Unix.gettimeofday () }
      r.outbox
  end;
  Mutex.unlock r.lock;
  if dropped then begin
    Atomic.incr t.deltas_dropped;
    Metrics.inc deltas_dropped_c
  end
  else begin
    Atomic.incr t.deltas_pushed;
    Metrics.inc deltas_c
  end;
  poke r

(* ---------------- session lifecycle (owning reader only) ---------------- *)

let close_session (t : t) r (s : session) =
  if s.alive then begin
    s.alive <- false;
    Mutex.lock r.lock;
    r.sessions <- List.filter (fun x -> x != s) r.sessions;
    Mutex.unlock r.lock;
    (try Unix.close s.fd with Unix.Unix_error _ -> ());
    Atomic.decr t.live_sessions;
    Metrics.set sessions_g (float_of_int (Atomic.get t.live_sessions))
  end

(* An answer whose encoded payload would exceed {!Frame.max_payload}
   would reach the client as a frame its reader rejects as corrupt; it is
   replaced, before anything is encoded, by a typed error, and the
   session continues. *)
let cap_answer (resp : Protocol.response) =
  match resp with
  | Protocol.Answer { columns; rows } ->
    let size = Protocol.answer_size ~columns rows in
    if size <= Frame.max_payload then resp
    else
      Protocol.Error
        {
          code = Query_failed;
          message =
            Printf.sprintf "answer is %d bytes encoded, above the %d-byte frame limit"
              size Frame.max_payload;
        }
  | _ -> resp

(** Write one response on the owning reader's domain.  Any failure —
    EPIPE, a send timeout on a stalled client, a closed fd — drops the
    session; it must never propagate into the reader loop. *)
let send (t : t) r (s : session) (resp : Protocol.response) =
  if s.alive then
    try
      let resp = cap_answer resp in
      (match resp with
      | Protocol.Error _ ->
        Atomic.incr t.protocol_errors;
        Metrics.inc errors_c
      | _ -> ());
      Frame.send s.fd (Protocol.response_frame resp)
    with _ -> close_session t r s

(* fold one finished request into the session's aggregates (owning
   reader only; [status_json] reads these racily, like everything else
   in the status document) *)
let note_request (s : session) ns =
  s.reqs <- s.reqs + 1;
  s.req_ns <- s.req_ns + ns;
  if ns > s.req_max_ns then s.req_max_ns <- ns

(** Send [resp] and complete the request trace: the [ack] stage spans
    [t0] (routing or handling start) to the end of the socket write. *)
let send_traced (t : t) r (s : session) (rq : Reqtrace.t option) ~t0 resp =
  send t r s resp;
  Reqtrace.add_stage rq "ack" ~t0 ~t1:(Unix.gettimeofday ());
  match Reqtrace.finish rq with
  | Some ns -> note_request s ns
  | None -> ()

(* ---------------- request handling (reader domains) ---------------- *)

let batch_tuples (changes : Protocol.changes) =
  List.fold_left (fun acc (_, d) -> acc + Relation.cardinal d) 0 changes

let query_error = function
  | Ivm_datalog.Parser.Parse_error msg -> "parse error: " ^ msg
  | Ivm_datalog.Safety.Unsafe msg -> "unsafe query: " ^ msg
  | Ivm_datalog.Program.Program_error msg -> msg
  | Invalid_argument msg | Failure msg -> msg
  | e -> Printexc.to_string e

let session_json (s : session) =
  Json.Obj
    [
      ("sid", Json.int s.sid);
      ("authed", Json.Bool s.authed);
      ("subscriptions", Json.List (List.map (fun p -> Json.Str p) s.subs));
      ("outbox", Json.int s.outq);
      ("requests", Json.int s.reqs);
      ( "mean_request_ns",
        Json.int (if s.reqs = 0 then 0 else s.req_ns / s.reqs) );
      ("max_request_ns", Json.int s.req_max_ns);
    ]

let status_json (t : t) =
  let mean_group =
    let c = Atomic.get t.group_commits in
    if c = 0 then 0.
    else float_of_int (Atomic.get t.committed_batches) /. float_of_int c
  in
  let per_session =
    Array.to_list t.pool
    |> List.concat_map (fun r -> Mutex.protect r.lock (fun () -> r.sessions))
    |> List.sort (fun a b -> compare a.sid b.sid)
    |> List.map session_json
  in
  let server =
    Json.Obj
      [
        ("port", Json.int t.port);
        ("uptime_s", Json.Num (Unix.gettimeofday () -. t.started_at));
        ("sessions", Json.int (Atomic.get t.live_sessions));
        ("sessions_total", Json.int (Atomic.get t.accepted));
        ("published_seq", Json.int (Atomic.get t.published_seq));
        ("publish", Snap_pub.status_json t.pub);
        ("group_commits", Json.int (Atomic.get t.group_commits));
        ("committed_batches", Json.int (Atomic.get t.committed_batches));
        ("mean_group_size", Json.Num mean_group);
        ("deltas_pushed", Json.int (Atomic.get t.deltas_pushed));
        ("deltas_dropped", Json.int (Atomic.get t.deltas_dropped));
        ("protocol_errors", Json.int (Atomic.get t.protocol_errors));
        ("reqtrace", Json.Bool (Reqtrace.enabled ()));
        ("per_session", Json.List per_session);
      ]
  in
  (* same racy point-in-time read contract as the monitor's /statusz *)
  Json.Obj [ ("server", server); ("manager", Vm.status_json t.vm) ]

let op_name : Protocol.request -> string = function
  | Hello _ -> "hello"
  | Ping -> "ping"
  | Query _ -> "query"
  | Apply _ -> "apply"
  | Subscribe _ -> "subscribe"
  | Status -> "status"
  | Close -> "close"

(** [t0] is the frame's arrival (the start of the socket read): the
    request trace's [decode] stage spans read + CRC check + decode +
    dispatch.  Inline ops finish here ([decode] → work → [ack]); applies
    hand their trace to the writer inside the job and are finished by
    the owning reader when the ack leaves the outbox. *)
let handle_request (t : t) r (s : session) ~(t0 : float)
    (req : Protocol.request) =
  let open Protocol in
  let trace_ctx =
    match req with
    | Query { trace; _ } | Apply { trace; _ } -> trace
    | _ -> ""
  in
  let rq =
    Reqtrace.start
      ?id:(if trace_ctx = "" then None else Some trace_ctx)
      ~started:t0 ~sid:s.sid ~op:(op_name req) ()
  in
  Reqtrace.add_stage rq "decode" ~t0 ~t1:(Unix.gettimeofday ());
  let reply resp = send_traced t r s rq ~t0:(Unix.gettimeofday ()) resp in
  match req with
  | Hello { version; token } ->
    Metrics.inc (requests_c "hello");
    if s.authed then reply (Error { code = Bad_request; message = "already said hello" })
    else if version <> Protocol.version then begin
      reply
        (Error
           {
             code = Bad_version;
             message =
               Printf.sprintf "protocol version %d not supported (want %d)"
                 version Protocol.version;
           });
      close_session t r s
    end
    else begin
      match t.config.auth_token with
      | Some expected when not (String.equal expected token) ->
        reply (Error { code = Auth_failed; message = "bad auth token" });
        close_session t r s
      | _ ->
        s.authed <- true;
        reply
          (Hello_ok { version = Protocol.version; seq = Atomic.get t.published_seq })
    end
  | _ when not s.authed ->
    reply (Error { code = Bad_request; message = "hello required first" });
    close_session t r s
  | Ping ->
    Metrics.inc (requests_c "ping");
    reply Pong
  | Query { body; _ } -> (
    Metrics.inc (requests_c "query");
    (* against the published immutable snapshot — never the database the
       writer is maintaining.  The pin spans only the evaluation: the
       reply below can block for a full socket timeout on a stalled
       client, and holding the pin there would force the writer into
       full-copy fallbacks. *)
    let db = Snap_pub.acquire t.pub ~reader:r.idx in
    let q0 = Unix.gettimeofday () in
    let res =
      match Query.run_text db body with
      | answer -> Ok answer
      | exception e -> Error e
    in
    Snap_pub.release t.pub ~reader:r.idx;
    Reqtrace.add_stage rq "query" ~t0:q0 ~t1:(Unix.gettimeofday ());
    match res with
    | Ok { Query.columns; rows } -> reply (Answer { columns; rows })
    | Error e -> reply (Error { code = Query_failed; message = query_error e }))
  | Apply { changes; _ } ->
    Metrics.inc (requests_c "apply");
    if Atomic.get t.stopped then
      reply (Error { code = Shutting_down; message = "server is draining" })
    else if batch_tuples changes > t.config.max_batch_tuples then
      reply
        (Error
           {
             code = Quota_exceeded;
             message =
               Printf.sprintf "batch of %d tuples exceeds per-batch quota %d"
                 (batch_tuples changes) t.config.max_batch_tuples;
           })
    else begin
      Mutex.lock t.qlock;
      Queue.add
        { js = s; changes; rq; echo_timings = trace_ctx <> "";
          enq = Unix.gettimeofday () }
        t.queue;
      Metrics.set queue_depth_g (float_of_int (Queue.length t.queue));
      Condition.signal t.qcond;
      Mutex.unlock t.qlock
      (* the ack (Applied / Error) arrives via the outbox after the
         group commit this batch rides in *)
    end
  | Subscribe pred ->
    Metrics.inc (requests_c "subscribe");
    let program = Vm.program t.vm in
    if not (Program.mem_pred program pred) then
      reply (Error { code = Bad_request; message = "unknown predicate " ^ pred })
    else if Program.is_base program pred then
      reply
        (Error
           {
             code = Bad_request;
             message = pred ^ " is a base relation; subscribe to a view";
           })
    else begin
      if not (List.mem pred s.subs) then s.subs <- pred :: s.subs;
      reply (Sub_ok pred)
    end
  | Status ->
    Metrics.inc (requests_c "status");
    reply (Status_reply (Json.to_string (status_json t)))
  | Close ->
    Metrics.inc (requests_c "close");
    reply Bye;
    close_session t r s

(* Until [hello], a peer is unauthenticated: it may declare a frame of at
   most this many bytes, so it cannot make the reader allocate the 64 MiB
   {!Frame.max_payload} before proving anything.  [hello] is a few dozen. *)
let preauth_max_payload = 64 * 1024

let handle_readable (t : t) r (s : session) =
  let t0 = Unix.gettimeofday () in
  let max_payload = if s.authed then Frame.max_payload else preauth_max_payload in
  match Frame.read_fd ~max_payload s.fd with
  | exception Frame.Closed -> close_session t r s
  | exception Wire.Corrupt msg ->
    send t r s
      (Error { code = Protocol.Bad_request; message = "bad frame: " ^ msg });
    close_session t r s
  | exception Unix.Unix_error _ -> close_session t r s
  | payload -> (
    match Protocol.decode_request payload with
    | exception Wire.Corrupt msg ->
      send t r s
        (Error { code = Protocol.Bad_request; message = "bad request: " ^ msg });
      close_session t r s
    | req -> handle_request t r s ~t0 req)

let reader_loop (t : t) (r : reader) =
  while not (Atomic.get t.stopped) do
    (* 1. deliver messages other domains queued for our sessions *)
    let pending =
      Mutex.lock r.lock;
      let msgs = List.of_seq (Queue.to_seq r.outbox) in
      Queue.clear r.outbox;
      List.iter (fun m -> m.om_s.outq <- m.om_s.outq - 1) msgs;
      let sessions = r.sessions in
      Mutex.unlock r.lock;
      (msgs, sessions)
    in
    let msgs, sessions = pending in
    List.iter
      (fun m ->
        match m.om_rq with
        | None -> send t r m.om_s m.om_resp
        | Some _ -> send_traced t r m.om_s m.om_rq ~t0:m.om_routed m.om_resp)
      msgs;
    (* disconnect sessions whose delta outbox overflowed (marked by the
       writer in [route_delta]; only the owning reader may close) *)
    List.iter
      (fun s ->
        if s.doomed && s.alive then begin
          send t r s
            (Protocol.Error
               {
                 code = Protocol.Quota_exceeded;
                 message =
                   Printf.sprintf
                     "subscriber outbox overflowed (max %d pending messages)"
                     t.config.max_outbox;
               });
          close_session t r s
        end)
      sessions;
    (* 2. wait for traffic *)
    let fds =
      r.wake_r :: List.filter_map (fun s -> if s.alive then Some s.fd else None) sessions
    in
    (match Unix.select fds [] [] 0.5 with
    | exception Unix.Unix_error ((EINTR | EBADF), _, _) -> ()
    | ready, _, _ ->
      if List.memq r.wake_r ready then drain_wake r;
      List.iter
        (fun s -> if s.alive && List.memq s.fd ready then handle_readable t r s)
        sessions)
  done;
  (* graceful shutdown: tell every session goodbye, then close it *)
  List.iter
    (fun s ->
      send t r s Protocol.Bye;
      close_session t r s)
    (Mutex.protect r.lock (fun () -> r.sessions))

(* ---------------- writer domain ---------------- *)

let writer_loop (t : t) =
  let running = ref true in
  while !running do
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not (Atomic.get t.stopped) do
      Condition.wait t.qcond t.qlock
    done;
    let jobs = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    if Atomic.get t.stopped && jobs = [] then running := false;
    Mutex.unlock t.qlock;
    if jobs <> [] then begin
      (* queue stage: from each batch's enqueue to the moment this drain
         starts processing — a batch's wait folds in its predecessors'
         work, which is exactly the latency the client experienced *)
      let jobs_a = Array.of_list jobs in
      let t_drain = Unix.gettimeofday () in
      Array.iter
        (fun j -> Reqtrace.add_stage j.rq "queue" ~t0:j.enq ~t1:t_drain)
        jobs_a;
      Metrics.set queue_depth_g 0.;
      Metrics.set queue_wait_g
        (Array.fold_left (fun acc j -> Float.max acc (t_drain -. j.enq)) 0.
           jobs_a
        *. 1e9);
      (* stage hooks: per-batch normalize/wal_append/maintain timings
         land on that batch's request trace; the group-wide fsync is
         attributed once to every committed batch, preceded by its
         group_wait (own maintain end → fsync start) — invariant 12 *)
      let maintain_end = Array.make (Array.length jobs_a) 0. in
      let hooks =
        if Reqtrace.enabled () then
          Some
            {
              Vm.batch_stage =
                (fun i name t0 t1 ->
                  Reqtrace.add_stage jobs_a.(i).rq name ~t0 ~t1;
                  if String.equal name "maintain" then maintain_end.(i) <- t1);
              Vm.group_stage =
                (fun name t0 t1 ->
                  Array.iteri
                    (fun i j ->
                      if maintain_end.(i) > 0. then begin
                        Reqtrace.add_stage j.rq "group_wait"
                          ~t0:maintain_end.(i) ~t1:t0;
                        Reqtrace.add_stage j.rq name ~t0 ~t1
                      end)
                    jobs_a);
            }
        else None
      in
      (* the group commit: normalize/log/maintain each batch, one fsync.
         The collector rides along and accumulates the group's exact net
         stored-count changes — the publisher's patch feed. *)
      let track = Changes.collector () in
      let results =
        Vm.apply_group ?hooks ~track t.vm (List.map (fun j -> j.changes) jobs)
      in
      let ok = List.length (List.filter Result.is_ok results) in
      let seq =
        match Vm.store_status t.vm with
        | Some st -> st.Ivm_store.Store.seq
        | None -> Atomic.get t.published_seq + ok
      in
      (* fsync'd → publish the new snapshot, then ack and fan out; until
         here no reader could see any batch of this group (invariant 11).
         Incremental: readers move to the live database while the
         shadow is patched with the group's net deltas and swapped back;
         full-copy fallback when the group was untracked or a stalled
         reader pins either database. *)
      let t_pub0 = Unix.gettimeofday () in
      let track = if t.config.full_publish then None else Some track in
      ignore (Snap_pub.publish ?track t.pub : Snap_pub.mode);
      Snap_pub.refresh_gauges t.pub;
      Atomic.set t.published_seq seq;
      Atomic.incr t.group_commits;
      Metrics.inc commits_c;
      Metrics.add batches_c ok;
      Metrics.observe group_size_h (List.length jobs);
      Atomic.set t.committed_batches (Atomic.get t.committed_batches + ok);
      let t_pub1 = Unix.gettimeofday () in
      List.iter2
        (fun j res ->
          match res with
          | Ok deltas ->
            Reqtrace.add_stage j.rq "publish" ~t0:t_pub0 ~t1:t_pub1;
            route ?rq:j.rq t j.js
              (Protocol.Applied
                 {
                   seq;
                   deltas;
                   timings =
                     (if j.echo_timings then Reqtrace.timings j.rq else []);
                 })
          | Error msg ->
            route ?rq:j.rq t j.js
              (Protocol.Error { code = Protocol.Invalid_changes; message = msg }))
        jobs results;
      (* per-batch delta fan-out to subscribers (bounded per session —
         [route_delta] drops and dooms on overflow) *)
      let subscribers =
        Array.to_list t.pool
        |> List.concat_map (fun r ->
               Mutex.protect r.lock (fun () ->
                   List.filter (fun s -> s.alive && s.subs <> []) r.sessions))
      in
      if subscribers <> [] then
        List.iter
          (fun res ->
            match res with
            | Error _ -> ()
            | Ok deltas ->
              List.iter
                (fun (pred, delta) ->
                  List.iter
                    (fun s ->
                      if List.mem pred s.subs then
                        route_delta t s (Protocol.Delta { seq; pred; delta }))
                    subscribers)
                deltas)
          results
    end
  done

(* ---------------- accept domain ---------------- *)

let accept_loop (t : t) =
  while not (Atomic.get t.stopped) do
    match Unix.accept t.lsock with
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED | EINTR), _, _)
      ->
      ()
    | fd, _addr ->
      if Atomic.get t.stopped then (try Unix.close fd with _ -> ())
      else begin
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.client_timeout_s;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.client_timeout_s;
           Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        if Atomic.get t.live_sessions >= t.config.max_sessions then begin
          (* quota: refuse before a session exists; this fd was never
             shared, so writing here cannot race a reader *)
          (try
             Frame.send fd
               (Protocol.response_frame
                  (Protocol.Error
                     {
                       code = Protocol.Quota_exceeded;
                       message =
                         Printf.sprintf "session limit %d reached"
                           t.config.max_sessions;
                     }))
           with _ -> ());
          Atomic.incr t.protocol_errors;
          Metrics.inc errors_c;
          try Unix.close fd with _ -> ()
        end
        else begin
          let sid = Atomic.fetch_and_add t.next_sid 1 in
          let s =
            { sid; fd; authed = false; subs = []; alive = true; outq = 0;
              doomed = false; reqs = 0; req_ns = 0; req_max_ns = 0 }
          in
          (* sid mod pool-size is the owner — [route] relies on it *)
          let r = t.pool.(sid mod Array.length t.pool) in
          Mutex.lock r.lock;
          r.sessions <- s :: r.sessions;
          Mutex.unlock r.lock;
          Atomic.incr t.live_sessions;
          Atomic.incr t.accepted;
          Metrics.inc accepted_c;
          Metrics.set sessions_g (float_of_int (Atomic.get t.live_sessions));
          poke r
        end
      end
  done

(* ---------------- lifecycle ---------------- *)

let running : t list ref = ref []
let running_lock = Mutex.create ()

let stop (t : t) =
  if not (Atomic.exchange t.stopped true) then begin
    (* wake the accept domain (shutdown alone does not reliably wake a
       blocked accept on Linux — same dance as Ivm_monitor) *)
    (try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> Unix.close s)
         (fun () -> Unix.connect s t.wake_addr)
     with Unix.Unix_error _ -> ());
    (match t.accept_domain with
    | Some d ->
      Domain.join d;
      t.accept_domain <- None
    | None -> ());
    (* writer drains the remaining queue, then exits *)
    Mutex.lock t.qlock;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qlock;
    (match t.writer_domain with
    | Some d ->
      Domain.join d;
      t.writer_domain <- None
    | None -> ());
    (* readers say Bye and close their sessions *)
    Array.iter
      (fun r ->
        poke r;
        match r.domain with
        | Some d ->
          Domain.join d;
          r.domain <- None
        | None -> ())
      t.pool;
    Array.iter
      (fun r ->
        (try Unix.close r.wake_r with Unix.Unix_error _ -> ());
        try Unix.close r.wake_w with Unix.Unix_error _ -> ())
      t.pool;
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    Mutex.lock running_lock;
    running := List.filter (fun s -> s != t) !running;
    Mutex.unlock running_lock
  end

let at_exit_registered = ref false

let start ?(host = "127.0.0.1") ?(config = default_config) ~vm ~port:requested
    () : t =
  if config.readers < 1 then invalid_arg "Server.start: readers must be >= 1";
  (* a client disconnecting mid-write must raise EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, requested) in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock addr;
     Unix.listen lsock 64
   with e ->
     Unix.close lsock;
     raise e);
  let port, wake_addr =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (bound, p) ->
      let reach =
        if bound = Unix.inet_addr_any then Unix.inet_addr_loopback else bound
      in
      (p, Unix.ADDR_INET (reach, p))
    | Unix.ADDR_UNIX _ as a -> (requested, a)
  in
  let pool =
    Array.init config.readers (fun idx ->
        let wake_r, wake_w = Unix.pipe () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        {
          idx;
          lock = Mutex.create ();
          sessions = [];
          outbox = Queue.create ();
          wake_r;
          wake_w;
          domain = None;
        })
  in
  let seq0 =
    match Vm.store_status vm with
    | Some st -> st.Ivm_store.Store.seq
    | None -> 0
  in
  let t =
    {
      vm;
      config;
      lsock;
      port;
      wake_addr;
      pub =
        (* one pin cell per reader domain plus a spare out-of-band cell
           (index [config.readers]) for external holders — backup dumps,
           load harnesses — reachable through [publisher] *)
        Snap_pub.create ~max_wait_s:config.publish_max_wait_s
          ~readers:(config.readers + 1) vm;
      published_seq = Atomic.make seq0;
      stopped = Atomic.make false;
      pool;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      accept_domain = None;
      writer_domain = None;
      started_at = Unix.gettimeofday ();
      next_sid = Atomic.make 0;
      accepted = Atomic.make 0;
      live_sessions = Atomic.make 0;
      group_commits = Atomic.make 0;
      committed_batches = Atomic.make 0;
      deltas_pushed = Atomic.make 0;
      deltas_dropped = Atomic.make 0;
      protocol_errors = Atomic.make 0;
    }
  in
  Array.iter (fun r -> r.domain <- Some (Domain.spawn (fun () -> reader_loop t r))) pool;
  t.writer_domain <- Some (Domain.spawn (fun () -> writer_loop t));
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  Mutex.lock running_lock;
  running := t :: !running;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit (fun () -> List.iter stop !running)
  end;
  Mutex.unlock running_lock;
  t
