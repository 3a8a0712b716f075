(** Span-based tracer with a near-zero-cost disabled path.

    Instrumented code wraps regions in {!span}; when tracing is off (the
    default) that is one boolean load and a direct call.  When on, each
    span records a Chrome [trace_event] {e complete} event (["ph": "X"])
    with microsecond timestamp and duration, delivered to two sinks:

    - an in-memory {b ring buffer} ({!Instr.Ring}: always, bounded,
      oldest dropped);
    - an optional {b JSONL writer} whose output loads directly in
      [chrome://tracing] / Perfetto: the file is a JSON array — an opening
      bracket, then one event object per line (the spec makes the closing
      bracket optional, so the file is valid even mid-trace).

    Span [args] are passed as a thunk evaluated {e after} the spanned
    function returns — so instrumentation can report deltas of work
    counters measured across the span without paying for them when
    tracing is off.

    Nesting needs no explicit bookkeeping: complete events nest by
    timestamp containment, which is how the viewers render them.  A
    [depth] argument is still attached to every event so tests (and the
    ring buffer) can check ordering without timestamp arithmetic. *)

type kind = Span | Instant | Flow_start | Flow_step | Flow_end

type event = {
  kind : kind;  (** a span is a complete event even at zero duration *)
  name : string;
  cat : string;
  ts_us : float;  (** microseconds since {!enable}-time *)
  dur_us : float;  (** span duration; [0] for instants *)
  depth : int;  (** span-nesting depth at emission *)
  tid : int;  (** emitting domain id, the Chrome [tid] lane *)
  id : int;  (** flow-event correlation id; [0] for non-flow events *)
  args : (string * string) list;
}

type state = {
  mutable on : bool;
  mutable t0 : float;  (** [Unix.gettimeofday] at enable-time *)
  mutable ring : event Instr.Ring.t;  (** replaced, with its drop count, at enable *)
  mutable chan : out_channel option;
  mutable path : string option;
  mutable depth : int;
}

let self_tid () = (Domain.self () :> int)

let default_capacity = 4096

let state =
  {
    on = false;
    t0 = 0.;
    ring = Instr.Ring.create default_capacity;
    chan = None;
    path = None;
    depth = 0;
  }

let enabled () = state.on

(* Trace loss is itself observable: /metrics exposes how many events the
   ring evicted and how big the ring is, so a truncated /trace drain is
   detectable instead of silent. *)
let dropped_gauge =
  Metrics.gauge "ivm_trace_dropped"
    ~help:"Trace events evicted from the ring buffer since enable"

let capacity_gauge =
  Metrics.gauge "ivm_trace_ring_capacity"
    ~help:"Capacity of the trace ring buffer (0 until first enabled)"

(* Spans can be emitted from worker domains during parallel fan-out
   ([Ivm_par]) and from every serve-path domain (readers, writer,
   accept); the file channel is shared, so event emission is serialized
   on [record_lock] (the ring also guards itself).  Control operations
   ([enable]/[disable]) take the same lock: they swap the ring and the
   file channel, and an emitter caught between the [state.on] check
   and [record] must land in either the old or the new sink — never in
   a closed channel or a torn ring.  The [depth] counter stays a
   best-effort plain field: concurrent spans would interleave depths
   anyway, and viewers nest by timestamp containment, not depth. *)
let record_lock = Mutex.create ()

let now_us () = (Unix.gettimeofday () -. state.t0) *. 1e6

(* ---------------- sinks ---------------- *)

let event_json ev =
  let ph =
    match ev.kind with
    | Span -> "X"
    | Instant -> "i"
    | Flow_start -> "s"
    | Flow_step -> "t"
    | Flow_end -> "f"
  in
  (* flow events carry the correlation [id] (and bind to the enclosing
     slice, "bp": "e") so viewers draw arrows between the reader- and
     writer-domain spans of one request *)
  let flow_fields =
    match ev.kind with
    | Flow_start | Flow_step | Flow_end ->
      [ ("id", Json.int ev.id); ("bp", Json.Str "e") ]
    | Span | Instant -> []
  in
  Json.Obj
    ([
       ("name", Json.Str ev.name);
       ("cat", Json.Str ev.cat);
       ("ph", Json.Str ph);
       ("ts", Json.Num ev.ts_us);
       ("dur", Json.Num ev.dur_us);
       ("pid", Json.int 1);
       ("tid", Json.int ev.tid);
     ]
    @ flow_fields
    @ [
        ( "args",
          Json.Obj
            (("depth", Json.int ev.depth)
            :: List.map (fun (k, v) -> (k, Json.Str v)) ev.args) );
      ])

let record ev =
  Mutex.lock record_lock;
  (* re-check under the lock: [disable] may have closed the sinks between
     the caller's [state.on] test and here *)
  if state.on then begin
    Instr.Ring.push state.ring ev;
    let dropped = Instr.Ring.dropped state.ring in
    if dropped > 0 then Metrics.set dropped_gauge (float_of_int dropped);
    match state.chan with
    | None -> ()
    | Some oc ->
      output_string oc (Json.to_string (event_json ev));
      output_string oc ",\n"
  end;
  Mutex.unlock record_lock

(* ---------------- control ---------------- *)

(* ring/channel swaps happen under [record_lock] so concurrent emitters
   (multiple domains are live whenever the server or the parallel pool
   runs) never write into a replaced ring or a closed channel *)
let enable_locked ?(capacity = default_capacity) ?chan ?path () =
  Mutex.lock record_lock;
  state.t0 <- Unix.gettimeofday ();
  state.ring <- Instr.Ring.create capacity;
  state.depth <- 0;
  state.chan <- chan;
  state.path <- path;
  state.on <- true;
  Mutex.unlock record_lock;
  Metrics.set dropped_gauge 0.;
  Metrics.set capacity_gauge (float_of_int capacity)

(** Start tracing into the ring buffer only. *)
let enable ?capacity () = enable_locked ?capacity ()

(** Start tracing into [path] (Chrome trace format) and the ring buffer.
    Truncates an existing file. *)
let enable_file ?capacity path =
  let oc = open_out path in
  output_string oc "[\n";
  enable_locked ?capacity ~chan:oc ~path ()

(** Stop tracing; flushes and closes the file sink if open.  Returns the
    path written, if any. *)
let disable () =
  Mutex.lock record_lock;
  let written = state.path in
  (match state.chan with
  | Some oc ->
    flush oc;
    close_out oc
  | None -> ());
  state.chan <- None;
  state.path <- None;
  state.on <- false;
  Mutex.unlock record_lock;
  written

let file_path () = state.path
let dropped () = Instr.Ring.dropped state.ring

(** Ring contents, oldest first. *)
let ring_events () : event list = Instr.Ring.oldest_first state.ring

(** Ring contents oldest first, emptying the ring atomically — consumed
    by the monitor's [/trace] endpoint so repeated drains see disjoint
    event batches.  [dropped] accounting is untouched (it counts ring
    evictions, not drains). *)
let drain () : event list = Instr.Ring.drain state.ring

(** Events as a Chrome [trace_event] JSON array (the same object shape
    the file sink writes line by line). *)
let events_json (evs : event list) : Json.t =
  Json.List (List.map event_json evs)

(* ---------------- emission ---------------- *)

let no_args () = []

(** [span name f] runs [f], recording a complete event around it when
    tracing is enabled.  [args] is evaluated after [f] returns (once, only
    when tracing).  Exceptions propagate; the event is still recorded with
    an ["exn"] argument so a trace never loses the span that failed. *)
let span ?(cat = "ivm") ?(args = no_args) name f =
  if not state.on then f ()
  else begin
    let ts = now_us () in
    let depth = state.depth in
    state.depth <- depth + 1;
    match f () with
    | x ->
      state.depth <- depth;
      record
        { kind = Span; name; cat; ts_us = ts; dur_us = now_us () -. ts; depth;
          tid = self_tid (); id = 0; args = args () };
      x
    | exception e ->
      state.depth <- depth;
      record
        {
          kind = Span;
          name;
          cat;
          ts_us = ts;
          dur_us = now_us () -. ts;
          depth;
          tid = self_tid ();
          id = 0;
          args = [ ("exn", Printexc.to_string e) ];
        };
      raise e
  end

(** A zero-duration instant event. *)
let instant ?(cat = "ivm") ?(args = no_args) name =
  if state.on then
    record
      { kind = Instant; name; cat; ts_us = now_us (); dur_us = 0.;
        depth = state.depth; tid = self_tid (); id = 0; args = args () }

(** [span_at ~ts ~dur name] records a complete event with an explicit
    start ([Unix.gettimeofday] seconds) and duration (seconds) — for
    cross-domain work measured where it happened and emitted later, e.g.
    a request's stage chain replayed at completion ({!Ivm_obs.Reqtrace}
    does exactly that).  [tid] defaults to the emitting domain; pass the
    domain that {e did} the work so the span lands in its lane. *)
let span_at ?(cat = "ivm") ?(args = []) ?tid ~ts ~dur name =
  if state.on then
    record
      {
        kind = Span;
        name;
        cat;
        ts_us = (ts -. state.t0) *. 1e6;
        dur_us = dur *. 1e6;
        depth = 0;
        tid = (match tid with Some t -> t | None -> self_tid ());
        id = 0;
        args;
      }

(** [flow ~phase ~id ~ts name] emits one Chrome flow event ([ph] "s",
    "t" or "f") with correlation [id] at absolute time [ts], in lane
    [tid] — the arrows that link one request's spans across the reader
    and writer domains. *)
let flow ?(cat = "ivm") ?tid ~phase ~id ~ts name =
  if state.on then
    record
      {
        kind =
          (match phase with
          | `Start -> Flow_start
          | `Step -> Flow_step
          | `End -> Flow_end);
        name;
        cat;
        ts_us = (ts -. state.t0) *. 1e6;
        dur_us = 0.;
        depth = 0;
        tid = (match tid with Some t -> t | None -> self_tid ());
        id;
        args = [];
      }
