(* Request-scoped tracing for the serve path.

   One [t] accompanies each inbound frame from reader decode to the ack
   write, crossing domains with the work itself: the reader stamps the
   decode and queue stages, the writer stamps normalize / WAL append /
   maintain / group-wait / fsync / publish, and the owning reader stamps
   the ack.  The handle travels inside the job through mutex-guarded
   queues, so exactly one domain mutates it at a time and every handoff
   carries a happens-before edge — no lock of its own is needed until
   [finish] folds the record into the shared sinks:

   - per-stage latency histograms ([ivm_serve_stage_ns{stage=...}]) and
     a per-op end-to-end histogram ([ivm_serve_request_ns{op=...}]);
   - a bounded ring of completed request breakdowns, served as JSON by
     the monitor's [GET /requestz];
   - the Chrome trace ring, as [Trace.span_at] complete events in the
     lane of the domain that did each stage, linked by [Trace.flow]
     arrows wherever the request hopped domains;
   - a structured slow-request log line (threshold [IVM_SLOW_REQUEST_MS],
     the same shape as [Attribution]'s slow-batch line).

   Cost: with [IVM_REQTRACE=0] every entry point is one boolean load and
   [start] returns [None], so the serve path carries no timestamps at
   all; measured overhead when on is recorded in EXPERIMENTS.md E19. *)

(* ---------------- enable switch ---------------- *)

let enabled_flag = Instr.switch "IVM_REQTRACE"

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ---------------- the request record ---------------- *)

type stage = {
  stage : string;
  t0 : float;  (** stage start, [Unix.gettimeofday] seconds *)
  t1 : float;  (** stage end *)
  tid : int;  (** domain that performed the stage *)
}

type t = {
  id : string;
  sid : int;
  op : string;
  started : float;
  flow_id : int;
  mutable stages : stage list;  (** reverse chronological while open *)
  mutable finished : bool;
}

(* The canonical apply-path chain, in order.  Tests and the CI smoke
   grep these exact stage labels; [queue]..[publish] also name the
   [ivm_serve_stage_ns] label values. *)
let apply_stages =
  [ "decode"; "queue"; "normalize"; "wal_append"; "maintain"; "group_wait";
    "fsync"; "publish"; "ack" ]

let query_stages = [ "decode"; "query"; "ack" ]

let next_rid = Atomic.make 1
let next_flow = Atomic.make 1

let start ?id ~started ~sid ~op () : t option =
  if not !enabled_flag then None
  else
    let id =
      match id with
      | Some s when s <> "" -> s
      | _ -> Printf.sprintf "r-%d" (Atomic.fetch_and_add next_rid 1)
    in
    Some
      {
        id;
        sid;
        op;
        started;
        flow_id = Atomic.fetch_and_add next_flow 1;
        stages = [];
        finished = false;
      }

let id (r : t) = r.id

(** Append one completed stage; no-op on [None] (tracing off). *)
let add_stage (rq : t option) name ~t0 ~t1 =
  match rq with
  | None -> ()
  | Some r ->
    r.stages <-
      { stage = name; t0; t1; tid = (Domain.self () :> int) } :: r.stages

let stage_ns (s : stage) =
  let ns = int_of_float ((s.t1 -. s.t0) *. 1e9) in
  if ns < 0 then 0 else ns

(** Stages recorded so far, chronological, as [(stage, ns)] — the shape
    the [Applied] reply's optional timings field carries. *)
let timings (rq : t option) : (string * int) list =
  match rq with
  | None -> []
  | Some r -> List.rev_map (fun s -> (s.stage, stage_ns s)) r.stages

(* ---------------- metric sinks ---------------- *)

(* The registry hands back the same handle for the same series, but each
   registration is a locked registry lookup, and [finish] would make ten
   per apply from every reader domain — measurably fewer requests served
   (EXPERIMENTS.md E19).  So each family keeps the handles it has seen in
   an immutable list behind an atomic: hits take no lock, and an entry
   lost to a racing append only costs one more lookup. *)
let family name label ~help =
  let seen = Atomic.make [] in
  fun v ->
    match List.assoc_opt v (Atomic.get seen) with
    | Some h -> h
    | None ->
      let h = Metrics.histogram ~labels:[ (label, v) ] name ~help in
      Atomic.set seen ((v, h) :: Atomic.get seen);
      h

let stage_hist =
  family "ivm_serve_stage_ns" "stage"
    ~help:"Serve-path request latency decomposed by stage, nanoseconds"

let op_hist =
  family "ivm_serve_request_ns" "op"
    ~help:"End-to-end request latency (decode to ack written), nanoseconds"

(* ---------------- completed-request ring ---------------- *)

type completed = {
  c_id : string;
  c_sid : int;
  c_op : string;
  c_start : float;  (** epoch seconds *)
  c_total_ns : int;
  c_stages : stage list;  (** chronological *)
}

let ring_capacity = 128
let ring : completed Instr.Ring.t = Instr.Ring.create ring_capacity

(** Completed requests, newest first (bounded to [ring_capacity]). *)
let recent () : completed list = Instr.Ring.newest_first ring

let reset () = Instr.Ring.clear ring

let stage_json (c : completed) (s : stage) =
  Json.Obj
    [
      ("stage", Json.Str s.stage);
      ("start_us", Json.Num ((s.t0 -. c.c_start) *. 1e6));
      ("dur_ns", Json.int (stage_ns s));
      ("tid", Json.int s.tid);
    ]

let completed_json (c : completed) =
  Json.Obj
    [
      ("id", Json.Str c.c_id);
      ("sid", Json.int c.c_sid);
      ("op", Json.Str c.c_op);
      ("start_unix_s", Json.Num c.c_start);
      ("total_ns", Json.int c.c_total_ns);
      ("stages", Json.List (List.map (stage_json c) c.c_stages));
    ]

(** The [GET /requestz] document: tracing state plus the ring of
    completed request breakdowns, newest first. *)
let recent_json () : Json.t =
  Json.Obj
    [
      ("enabled", Json.Bool !enabled_flag);
      ("capacity", Json.int ring_capacity);
      ("requests", Json.List (List.map completed_json (recent ())));
    ]

(* ---------------- slow-request log ---------------- *)

let slow_threshold_ms = Instr.threshold "IVM_SLOW_REQUEST_MS"

(** Override the [IVM_SLOW_REQUEST_MS] threshold ([None] disables). *)
let set_slow_threshold_ms t = slow_threshold_ms := t

let log_slow (c : completed) =
  Instr.slow_log slow_threshold_ms ~event:"slow_request" ~total_ns:c.c_total_ns
    (fun timing ->
      [ ("id", Json.Str c.c_id); ("sid", Json.int c.c_sid); ("op", Json.Str c.c_op) ]
      @ timing
      @ [ ("stages", Json.List (List.map (stage_json c) c.c_stages)) ])

(* ---------------- completion ---------------- *)

(** Close the request: fold its stages into the histograms, the
    completed ring, the Chrome trace (one [span_at] per stage in the
    performing domain's lane, flow arrows at every domain hop) and, if
    over threshold, the slow-request log.  Returns the end-to-end
    nanoseconds (request start to last stage end) so the caller can
    maintain per-session aggregates; idempotent, [None]-tolerant. *)
let finish (rq : t option) : int option =
  match rq with
  | None -> None
  | Some r when r.finished -> None
  | Some r ->
    r.finished <- true;
    let stages = List.rev r.stages in
    let last_end =
      List.fold_left (fun acc s -> if s.t1 > acc then s.t1 else acc)
        r.started stages
    in
    let total_ns =
      let ns = int_of_float ((last_end -. r.started) *. 1e9) in
      if ns < 0 then 0 else ns
    in
    List.iter (fun s -> Metrics.observe (stage_hist s.stage) (stage_ns s))
      stages;
    Metrics.observe (op_hist r.op) total_ns;
    let c =
      {
        c_id = r.id;
        c_sid = r.sid;
        c_op = r.op;
        c_start = r.started;
        c_total_ns = total_ns;
        c_stages = stages;
      }
    in
    Instr.Ring.push ring c;
    log_slow c;
    if Trace.enabled () then begin
      let args =
        [ ("req", r.id); ("sid", string_of_int r.sid); ("op", r.op) ]
      in
      List.iter
        (fun s ->
          Trace.span_at ~cat:"req" ~args ~tid:s.tid ~ts:s.t0
            ~dur:(s.t1 -. s.t0) s.stage)
        stages;
      match stages with
      | [] -> ()
      | first :: rest ->
        Trace.flow ~cat:"req" ~tid:first.tid ~phase:`Start ~id:r.flow_id
          ~ts:first.t0 r.id;
        let last =
          List.fold_left
            (fun prev s ->
              if s.tid <> prev.tid then
                Trace.flow ~cat:"req" ~tid:s.tid ~phase:`Step ~id:r.flow_id
                  ~ts:s.t0 r.id;
              s)
            first rest
        in
        Trace.flow ~cat:"req" ~tid:last.tid ~phase:`End ~id:r.flow_id
          ~ts:last.t1 r.id
    end;
    Some total_ns
