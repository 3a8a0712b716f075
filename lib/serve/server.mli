(** The multi-client view server: a TCP front door over one
    {!Ivm.View_manager} speaking the {!Protocol} codec in
    {!Ivm_wire.Frame} envelopes (see [docs/PROTOCOL.md]).

    Concurrency shape (ARCHITECTURE.md §16): an accept domain, a pool of
    reader domains that own the client sockets and answer queries
    against an atomically-published immutable snapshot, and a single
    writer domain that drains queued [Apply] batches and commits each
    drain as a {e group} — per batch normalize → WAL append (unsynced) →
    maintain, then one fsync ({!Ivm.View_manager.apply_group}), then
    snapshot publication, acks, and subscriber delta fan-out.

    Invariant 11: snapshot publication and every [Applied] /
    [Delta] message happen strictly after the group's fsync, so no
    client ever observes a batch the WAL has not made durable. *)

type config = {
  auth_token : string option;
      (** when set, [Hello] must carry exactly this token *)
  max_sessions : int;  (** connections beyond this are refused *)
  max_batch_tuples : int;  (** per-[Apply] tuple quota *)
  readers : int;  (** reader-domain pool size (>= 1) *)
  client_timeout_s : float;
      (** socket send/receive timeout; a stalled client is dropped after
          at most this long, and can only ever stall its own reader *)
  max_outbox : int;
      (** per-session bound on pending outbox messages: a subscriber
          whose deltas back up past this has further deltas dropped
          (counted in [ivm_serve_deltas_dropped_total]) and is
          disconnected by its owning reader *)
  publish_max_wait_s : float;
      (** how long the writer waits for a pinned reader before a
          publish falls back to a full snapshot copy ({!Snap_pub}) *)
  full_publish : bool;
      (** benchmarking escape hatch: publish untracked, forcing the
          pre-incremental full-copy path on every group *)
}

(** [{auth_token = None; max_sessions = 64; max_batch_tuples = 100_000;
    readers = 2; client_timeout_s = 5.0; max_outbox = 1024;
    publish_max_wait_s = 0.05; full_publish = false}] *)
val default_config : config

(** Largest frame payload (64 KiB) a session may declare before its
    [hello] succeeds; a larger header is answered [bad_request] and the
    session closed, before the payload is allocated
    ([docs/PROTOCOL.md] §1).  A constant, not a config field. *)
val preauth_max_payload : int

type t

(** Point-in-time counters, also exported through {!Ivm_obs.Metrics} as
    [ivm_serve_*]. *)
type stats = {
  sessions : int;  (** currently connected *)
  accepted : int;  (** connections accepted since start *)
  group_commits : int;  (** fsyncs *)
  committed_batches : int;  (** batches successfully applied *)
  deltas_pushed : int;
  deltas_dropped : int;  (** deltas dropped on subscriber outbox overflow *)
  protocol_errors : int;  (** [Error] responses sent *)
}

(** Start serving [vm] on [host:port] ([port = 0] picks an ephemeral
    port, see {!port}).  Spawns [config.readers + 2] domains.  The
    caller must not mutate [vm] while the server runs — the writer
    domain owns it.  Registers an [at_exit] stop, like
    [Ivm_monitor.Monitor]. *)
val start :
  ?host:string -> ?config:config -> vm:Ivm.View_manager.t -> port:int ->
  unit -> t

(** Graceful shutdown: stop accepting, drain and group-commit the
    pending apply queue, send [Bye] to every session, close everything,
    join all domains.  Idempotent. *)
val stop : t -> unit

(** The bound port. *)
val port : t -> int

val manager : t -> Ivm.View_manager.t

(** The snapshot publisher — epoch/lag/mode introspection and the
    monitor's gauge-refresh hook ({!Snap_pub.refresh_gauges}).  Pin
    cells [0 .. config.readers - 1] belong to the reader domains; cell
    [config.readers] is a spare for out-of-band holders (backup dumps,
    load harnesses) — pin it with {!Snap_pub.acquire} and the writer
    stays live, falling back to full copies past
    [publish_max_wait_s]. *)
val publisher : t -> Snap_pub.t

val stats : t -> stats

(** The [Status_reply] document: a ["server"] section (sessions, commit
    and delta counters, published sequence, and a ["per_session"] array
    with each session's request count, mean/max latency, subscription
    list, and outbox depth — fed by {!Ivm_obs.Reqtrace}) plus the
    manager's {!Ivm.View_manager.status_json} under ["manager"]. *)
val status_json : t -> Ivm_obs.Json.t
