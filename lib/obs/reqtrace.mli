(** Request-scoped tracing for the serve path ([ivm_reqtrace]).

    Every inbound frame gets a request id (client-proposed through the
    protocol's trace-context field, server-assigned otherwise) and a
    handle that rides with the work across domain hops — reader decode →
    apply-queue → writer normalize / WAL append / maintain / group wait /
    fsync / publish → ack on the owning reader.  Each hop appends one
    {!add_stage}; {!finish} folds the chain into:

    - [ivm_serve_stage_ns{stage=...}] and [ivm_serve_request_ns{op=...}]
      histograms ({!Metrics});
    - a bounded ring of completed breakdowns, served as JSON by the
      monitor's [GET /requestz] ({!recent_json});
    - the Chrome trace ring — one {!Trace.span_at} per stage in the lane
      of the domain that performed it, {!Trace.flow} arrows at each
      domain hop;
    - a structured slow-request log line when the end-to-end time
      exceeds [IVM_SLOW_REQUEST_MS] (same pattern as {!Attribution}'s
      slow-batch line).

    The handle is single-writer by construction: it crosses domains only
    inside mutex-guarded queues, each hop mutating it strictly after the
    previous one released it.  Disabled ([IVM_REQTRACE=0]) the entire
    facility is one boolean load per request — {!start} returns [None]
    and every other entry point no-ops on [None]. *)

(** Reflects [IVM_REQTRACE] ([0]/[off]/[false]/[no] disable; default
    on), overridable with {!set_enabled}. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** One completed stage of a request. *)
type stage = {
  stage : string;
  t0 : float;  (** stage start, [Unix.gettimeofday] seconds *)
  t1 : float;  (** stage end *)
  tid : int;  (** domain that performed the stage *)
}

type t

(** The canonical apply-path stage chain, in order: [decode], [queue],
    [normalize], [wal_append], [maintain], [group_wait], [fsync],
    [publish], [ack].  These exact strings label [ivm_serve_stage_ns]. *)
val apply_stages : string list

(** The query-path chain: [decode], [query], [ack]. *)
val query_stages : string list

(** Open a request record that began at [started] ([Unix.gettimeofday]
    seconds: the frame's arrival, so the end-to-end total covers decode
    to ack written); [None] when tracing is disabled.  [id] is the
    client-proposed trace context (ignored when empty — a fresh server
    id [r-<n>] is assigned). *)
val start : ?id:string -> started:float -> sid:int -> op:string -> unit -> t option

val id : t -> string

(** Append one completed stage ([t0]/[t1] in [Unix.gettimeofday]
    seconds); tags it with the calling domain.  No-op on [None]. *)
val add_stage : t option -> string -> t0:float -> t1:float -> unit

(** Stages recorded so far, chronological, as [(stage, ns)] pairs — the
    payload of the [Applied] reply's optional timings field. *)
val timings : t option -> (string * int) list

(** Close the request and fold it into every sink (histograms, ring,
    Chrome trace, slow log).  Returns end-to-end nanoseconds (request
    start to last stage end) so callers can keep per-session aggregates.
    Idempotent; [None] on [None] or a second call. *)
val finish : t option -> int option

type completed = {
  c_id : string;
  c_sid : int;
  c_op : string;
  c_start : float;  (** epoch seconds *)
  c_total_ns : int;
  c_stages : stage list;  (** chronological *)
}

(** Completed requests, newest first (bounded ring of
    {!ring_capacity}). *)
val recent : unit -> completed list

val ring_capacity : int

(** Empty the completed ring (tests use this for isolation). *)
val reset : unit -> unit

(** The [GET /requestz] document: [{enabled; capacity; requests}],
    requests newest first, each with its per-stage breakdown. *)
val recent_json : unit -> Json.t

(** Override the [IVM_SLOW_REQUEST_MS] threshold ([None] disables the
    slow-request log). *)
val set_slow_threshold_ms : float option -> unit
