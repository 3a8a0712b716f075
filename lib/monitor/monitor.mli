(** The live monitoring endpoint: a small single-threaded HTTP/1.0
    server on a dedicated domain.

    One accept loop, one request per connection, [Connection: close].
    The server only {e reads} shared state — the mutex-protected metrics
    registry, the trace ring, the caller's status callback — so scraping
    never blocks maintenance.

    Endpoints: [GET /metrics] (Prometheus text exposition 0.0.4),
    [GET /healthz] (liveness JSON), [GET /statusz] (caller-supplied
    status document plus uptime/pid/trace fields), [GET /trace] (drains
    the {!Ivm_obs.Trace} ring as a Chrome [trace_event] JSON array —
    repeated GETs see disjoint batches), [GET /requestz] (the
    {!Ivm_obs.Reqtrace} ring of completed serve-path requests with
    per-stage latency breakdowns), [GET /why?q=fact] (the
    caller-supplied provenance EXPLAIN callback; 404 when none is
    configured).  Anything else is a 404. *)

type config = {
  status : unit -> Ivm_obs.Json.t;
      (** the [/statusz] document; an [Obj]'s fields are spliced after
          the process fields, any other value appears under ["status"].
          Called from the accept domain while maintenance may be
          running, so the values it reads are racy point-in-time
          observations — same contract as a [/metrics] scrape. *)
  before_metrics : unit -> unit;
      (** runs before each [/metrics] or [/statusz] render — mirror
          non-registry state into the registry here (e.g. the server's
          snapshot-age gauges) *)
  explain : (string -> (Ivm_obs.Json.t, string) result) option;
      (** serves [GET /why?q=fact]: called with the percent-decoded [q]
          value (e.g. [Ivm.View_manager.explain_json]); [Error] renders
          as a 400.  Runs on the accept domain while maintenance may be
          mutating relations — same racy-read contract as {!status}. *)
}

(** Empty status, no pre-render hook. *)
val default_config : config

type t

(** Start serving on [port] ([0] picks an ephemeral port — read it back
    with {!port}).  Binds [host], default loopback: the monitor exposes
    process internals, so binding wider is an explicit choice.  The
    accept loop runs on its own domain; every running server is
    [at_exit]-stopped so a process that forgets {!stop} still exits.
    Ignores SIGPIPE process-wide (a disconnecting scrape client must
    raise [EPIPE], not kill the process); accepted sockets get a short
    receive/send timeout so a stalled client cannot wedge the server.
    @raise Unix.Unix_error when the address is in use or not
    bindable. *)
val start : ?host:string -> ?config:config -> port:int -> unit -> t

(** The port actually bound (meaningful after [start ~port:0]). *)
val port : t -> int

(** Stop accepting, wake and join the accept domain, close the socket.
    Idempotent. *)
val stop : t -> unit
