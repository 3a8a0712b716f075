(** The observability layer: metrics registry semantics (label identity,
    saturation, log-bucket histograms), span tracing (nesting, ordering,
    Chrome trace parse-back through {!Ivm_obs.Json}), the {!Ivm_eval.Stats}
    shim's snapshot/since contract, and the paper's headline claim as a
    property — Recompute's work strictly dominates Counting's on the
    Example 1.1 workload. *)

open Util
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace
module Json = Ivm_obs.Json
module Stats = Ivm_eval.Stats
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Recompute = Ivm.Recompute

let q ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let str k e = Option.bind (Json.member k e) Json.to_string_opt
let num k e = Option.bind (Json.member k e) Json.to_float_opt

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_handle_identity () =
  let a = Metrics.counter ~labels:[ ("x", "1"); ("y", "2") ] "obs_test_ident" in
  let b = Metrics.counter ~labels:[ ("y", "2"); ("x", "1") ] "obs_test_ident" in
  Metrics.inc a;
  Metrics.inc b;
  Alcotest.(check bool) "label order canonicalized to one handle" true (a == b);
  Alcotest.(check int) "both bumps hit the same counter" 2 (Metrics.counter_value a);
  let c = Metrics.counter ~labels:[ ("x", "1") ] "obs_test_ident" in
  Alcotest.(check bool) "different labels, different handle" false (a == c)

let test_kind_clash () =
  ignore (Metrics.counter "obs_test_clash");
  Alcotest.check_raises "re-registering as a gauge fails"
    (Invalid_argument "Metrics: obs_test_clash already registered as a counter")
    (fun () -> ignore (Metrics.gauge "obs_test_clash"))

let test_counter_saturation () =
  let c = Metrics.counter "obs_test_saturate" in
  Metrics.add c (max_int - 1);
  Metrics.add c 5;
  Alcotest.(check int) "add saturates at max_int" max_int (Metrics.counter_value c);
  Metrics.inc c;
  Alcotest.(check int) "inc saturates too" max_int (Metrics.counter_value c);
  Metrics.add c (-3);
  Alcotest.(check int) "negative add still works" (max_int - 3)
    (Metrics.counter_value c)

let test_histogram_buckets () =
  Alcotest.(check int) "v<=0 goes to bucket 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "1 -> bucket 1" 1 (Metrics.bucket_of 1);
  Alcotest.(check int) "2..3 -> bucket 2" 2 (Metrics.bucket_of 3);
  Alcotest.(check int) "4..7 -> bucket 3" 3 (Metrics.bucket_of 7);
  Alcotest.(check int) "bucket 3 upper bound" 7 (Metrics.bucket_upper 3);
  Alcotest.(check int) "2^40 -> bucket 41" 41 (Metrics.bucket_of (1 lsl 40));
  (* 62 on 63-bit native ints: the min-clamp is headroom, not reachable *)
  Alcotest.(check bool) "max_int fits the bucket array" true
    (Metrics.bucket_of max_int < 64);
  Alcotest.(check bool) "max_int's bucket covers it" true
    (Metrics.bucket_upper (Metrics.bucket_of max_int) >= max_int)

let test_histogram_percentiles () =
  let h = Metrics.histogram "obs_test_hist" in
  Alcotest.(check int) "empty percentile is 0" 0 (Metrics.percentile h 0.5);
  List.iter (Metrics.observe h) [ 1; 2; 3; 100 ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count h);
  Alcotest.(check int) "sum" 106 (Metrics.histogram_sum h);
  Alcotest.(check int) "min" 1 (Metrics.histogram_min h);
  Alcotest.(check int) "max" 100 (Metrics.histogram_max h);
  (* rank 2 of {1,2,3,100} is 2, in bucket [2,3] -> upper bound 3 *)
  Alcotest.(check int) "p50 = containing bucket upper" 3 (Metrics.percentile h 0.5);
  (* rank 4 is 100, in bucket [64,127] -> 127: within 2x of exact *)
  Alcotest.(check int) "p99 within 2x" 127 (Metrics.percentile h 0.99)

let test_reset_keeps_handles () =
  let c = Metrics.counter "obs_test_reset" in
  let h = Metrics.histogram "obs_test_reset_h" in
  Metrics.add c 7;
  Metrics.observe h 9;
  Metrics.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.histogram_count h);
  Metrics.inc c;
  Metrics.observe h 1;
  Alcotest.(check int) "handle still live after reset" 1 (Metrics.counter_value c);
  Alcotest.(check int) "histogram handle still live" 1 (Metrics.histogram_count h)

(* Bumps from concurrent domains are never lost, and a domain's counts
   outlive it: four domains hammer one counter and one histogram, then a
   run of short-lived domains each bump once and are joined. *)
let test_exact_across_domains () =
  let c = Metrics.counter "obs_test_exact" in
  let h = Metrics.histogram "obs_test_exact_h" in
  let per_domain = 1_000_000 and hammering = 4 and short_lived = 128 in
  (* start together, so the bumps really overlap *)
  let ready = Atomic.make 0 in
  List.init hammering (fun _ ->
      Domain.spawn (fun () ->
          Atomic.incr ready;
          while Atomic.get ready < hammering do
            Domain.cpu_relax ()
          done;
          for _ = 1 to per_domain do
            Metrics.inc c;
            Metrics.observe h 2
          done))
  |> List.iter Domain.join;
  for _ = 1 to short_lived do
    Domain.join
      (Domain.spawn (fun () ->
           Metrics.inc c;
           Metrics.observe h 2))
  done;
  let n = (hammering * per_domain) + short_lived in
  Alcotest.(check int) "counter value" n (Metrics.counter_value c);
  Alcotest.(check int) "histogram count" n (Metrics.histogram_count h);
  Alcotest.(check int) "histogram sum" (2 * n) (Metrics.histogram_sum h);
  Alcotest.(check int) "this domain's share" 0 (Metrics.local_value () c)

(* [Metrics.reset] zeroes the evaluator's work counters too, in the
   [Stats] reads and in the rendered exposition alike. *)
let test_reset_zeroes_work () =
  let module Vm = Ivm.View_manager in
  let vm =
    Vm.of_source ~algorithm:Vm.Counting
      "hop(X, Y) :- link(X, Z), link(Z, Y).\nlink(a, b).\n"
  in
  ignore
    (Vm.apply vm
       (Changes.insertions (Vm.program vm) "link" [ Tuple.of_strs [ "b"; "c" ] ]));
  Alcotest.(check bool) "the batch derived tuples" true (Stats.derivations () > 0);
  Metrics.reset ();
  Alcotest.(check int) "Stats.derivations zeroed" 0 (Stats.derivations ());
  let sample =
    List.find_opt
      (fun l -> String.starts_with ~prefix:"ivm_derivations_total " l)
      (String.split_on_char '\n' (Ivm_monitor.Prometheus.render ()))
  in
  Alcotest.(check (option string)) "rendered sample zeroed"
    (Some "ivm_derivations_total 0") sample

(* ------------------------------------------------------------------ *)
(* Tracer                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_disabled_passthrough () =
  ignore (Trace.disable ());
  Alcotest.(check bool) "disabled by default here" false (Trace.enabled ());
  let r = Trace.span "never-recorded" (fun () -> 17) in
  Alcotest.(check int) "span is transparent when off" 17 r;
  Alcotest.(check (list string)) "nothing recorded" []
    (List.map (fun e -> e.Trace.name) (Trace.ring_events ()))

let test_span_nesting () =
  Trace.enable ~capacity:16 ();
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () -> Trace.instant "tick");
      Trace.span "inner2" (fun () -> ()));
  ignore (Trace.disable ());
  let evs = Trace.ring_events () in
  let names = List.map (fun e -> e.Trace.name) evs in
  (* completion order: instants immediately, spans when they close *)
  Alcotest.(check (list string)) "completion order" [ "tick"; "inner"; "inner2"; "outer" ] names;
  let by_name n = List.find (fun e -> e.Trace.name = n) evs in
  Alcotest.(check int) "outer at depth 0" 0 (by_name "outer").Trace.depth;
  Alcotest.(check int) "inner at depth 1" 1 (by_name "inner").Trace.depth;
  Alcotest.(check int) "instant inside inner at depth 2" 2 (by_name "tick").Trace.depth;
  let outer = by_name "outer" and inner = by_name "inner" in
  Alcotest.(check bool) "outer contains inner (timestamps)" true
    (outer.Trace.ts_us <= inner.Trace.ts_us
    && outer.Trace.ts_us +. outer.Trace.dur_us
       >= inner.Trace.ts_us +. inner.Trace.dur_us)

let test_span_exception () =
  Trace.enable ~capacity:8 ();
  (try Trace.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  ignore (Trace.disable ());
  match Trace.ring_events () with
  | [ ev ] ->
    Alcotest.(check string) "span recorded despite exception" "boom" ev.Trace.name;
    Alcotest.(check bool) "exn attached" true
      (List.mem_assoc "exn" ev.Trace.args)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_trace_file_parse_back () =
  let path = Filename.temp_file "ivm_obs_test" ".json" in
  Trace.enable_file ~capacity:16 path;
  Trace.span "batch" ~args:(fun () -> [ ("algorithm", "counting") ])
    (fun () -> Trace.span "rule" (fun () -> ()));
  (match Trace.disable () with
  | Some p -> Alcotest.(check string) "disable returns the path" path p
  | None -> Alcotest.fail "disable lost the file path");
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  (match lines with
  | "[" :: _ -> ()
  | _ -> Alcotest.fail "file must open a JSON array");
  let strip_comma l =
    let l = String.trim l in
    if String.length l > 0 && l.[String.length l - 1] = ',' then
      String.sub l 0 (String.length l - 1)
    else l
  in
  let events = List.tl lines |> List.map (fun l -> Json.of_string (strip_comma l)) in
  Alcotest.(check int) "two span events" 2 (List.length events);
  let names = List.map (str "name") events in
  Alcotest.(check bool) "rule completes before batch" true
    (names = [ Some "rule"; Some "batch" ]);
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "complete event" (Some "X") (str "ph" e);
      Alcotest.(check bool) "has a timestamp" true (num "ts" e <> None))
    events;
  let batch = List.nth events 1 in
  Alcotest.(check (option string)) "args thunk captured" (Some "counting")
    (Option.bind (Json.member "args" batch) (str "algorithm"));
  Sys.remove path

let test_ring_wraps () =
  Trace.enable ~capacity:4 ();
  for i = 1 to 10 do
    Trace.instant (string_of_int i)
  done;
  ignore (Trace.disable ());
  Alcotest.(check (list string)) "ring keeps newest, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.name) (Trace.ring_events ()));
  Alcotest.(check int) "drops counted" 6 (Trace.dropped ());
  (* the newest-first reads the batch, request and provenance histories
     use, on the same wrapped ring *)
  let r = Ivm_obs.Instr.Ring.create 4 in
  Alcotest.(check (option int)) "empty ring has no newest" None
    (Ivm_obs.Instr.Ring.newest r);
  for i = 1 to 10 do
    Ivm_obs.Instr.Ring.push r i
  done;
  Alcotest.(check (list int)) "newest first" [ 10; 9; 8; 7 ]
    (Ivm_obs.Instr.Ring.newest_first r);
  Alcotest.(check (option int)) "newest" (Some 10) (Ivm_obs.Instr.Ring.newest r);
  Alcotest.(check (list int)) "drain oldest first" [ 7; 8; 9; 10 ]
    (Ivm_obs.Instr.Ring.drain r);
  Ivm_obs.Instr.Ring.push r 11;
  Alcotest.(check (list int)) "drained ring refills" [ 11 ]
    (Ivm_obs.Instr.Ring.oldest_first r);
  Alcotest.(check int) "drain keeps the drop count" 6 (Ivm_obs.Instr.Ring.dropped r)

(* The serve path emits from reader and writer domains while the monitor
   drains [/trace] and tests toggle tracing — control (enable/disable)
   and emission must serialize on the ring lock.  Hammer all of them at
   once, then check the quiescent accounting still balances. *)
let test_trace_multidomain_stress () =
  ignore (Trace.disable ());
  let stop = Atomic.make false in
  let emitters =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              let name = Printf.sprintf "d%d-%d" d !i in
              Trace.instant name;
              Trace.span_at ~ts:(Unix.gettimeofday ()) ~dur:1e-6 name;
              Trace.flow ~phase:`Step ~id:(d + 1)
                ~ts:(Unix.gettimeofday ()) name
            done))
  in
  (* toggle and drain concurrently with the emitting domains *)
  for _ = 1 to 50 do
    Trace.enable ~capacity:64 ();
    ignore (Trace.drain ());
    ignore (Trace.ring_events ());
    ignore (Trace.disable ())
  done;
  Atomic.set stop true;
  List.iter Domain.join emitters;
  (* quiescent: a fresh ring accounts for every event exactly once *)
  Trace.enable ~capacity:64 ();
  for i = 1 to 1000 do
    Trace.instant (string_of_int i)
  done;
  ignore (Trace.disable ());
  Alcotest.(check int) "ring + drops account for every event" 1000
    (List.length (Trace.ring_events ()) + Trace.dropped ())

(* ------------------------------------------------------------------ *)
(* Stats shim                                                           *)
(* ------------------------------------------------------------------ *)

let test_stats_since_nesting () =
  Stats.reset ();
  let outer_before = Stats.snapshot () in
  Metrics.inc Stats.derivations_c;
  let inner_before = Stats.snapshot () in
  Metrics.inc Stats.derivations_c;
  Metrics.inc Stats.derivations_c;
  let inner = Stats.since inner_before in
  let outer = Stats.since outer_before in
  Alcotest.(check int) "inner region work" 2 inner.Stats.snap_derivations;
  Alcotest.(check int) "outer region includes inner (by design)" 3
    outer.Stats.snap_derivations

let test_stats_since_clamps_across_reset () =
  Stats.reset ();
  Metrics.inc Stats.probes_c;
  Metrics.inc Stats.probes_c;
  let before = Stats.snapshot () in
  Stats.reset ();
  Metrics.inc Stats.probes_c;
  let w = Stats.since before in
  Alcotest.(check int) "stale snapshot clamps at 0, never negative" 0
    w.Stats.snap_probes

(* ------------------------------------------------------------------ *)
(* Property: Recompute work strictly dominates Counting (Example 1.1)   *)
(* ------------------------------------------------------------------ *)

(* hop over a random edge set, plus a fixed component (negative node ids,
   disjoint from the generated domain) whose hop tuple every recomputation
   must re-derive while Counting — touching only the delta (Theorem 4.1) —
   never visits it. *)
let domination_gen =
  QCheck.Gen.(list_size (int_range 0 30) (pair (int_range 0 19) (int_range 0 19)))
  |> QCheck.make ~print:(fun edges ->
         String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges))

let work_of snap =
  snap.Stats.snap_derivations + snap.Stats.snap_tuples_scanned
  + snap.Stats.snap_probes

let test_recompute_dominates edges =
  let program =
    Program.make (Ivm_datalog.Parser.parse_rules Ivm_workload.Programs.hop)
  in
  let db = Database.create ~semantics:Database.Set_semantics program in
  let fixed =
    [ Tuple.of_ints [ -1; -2 ]; Tuple.of_ints [ -2; -3 ] ]
  in
  let generated =
    List.map (fun (a, b) -> Tuple.make [| Value.Int a; Value.Int b |]) edges
  in
  Database.load db "link" (fixed @ generated);
  Seminaive.evaluate db;
  (* insert one edge outside both domains: always a valid change *)
  let batch =
    Changes.insertions program "link" [ Tuple.of_ints [ 1000; 1001 ] ]
  in
  let counting_db = Database.copy db and recompute_db = Database.copy db in
  let before = Stats.snapshot () in
  ignore (Counting.maintain counting_db batch);
  let counting_work = work_of (Stats.since before) in
  let before = Stats.snapshot () in
  Recompute.maintain recompute_db batch;
  let recompute_work = work_of (Stats.since before) in
  if not (Database.agree counting_db recompute_db) then
    QCheck.Test.fail_reportf "algorithms disagree on the maintained state";
  if counting_work >= recompute_work then
    QCheck.Test.fail_reportf
      "counting did %d units of work, recompute only %d — Theorem 4.1's \
       optimality advantage should be strict on this workload"
      counting_work recompute_work;
  true

(* ------------------------------------------------------------------ *)

(* A request's total runs from [started], the frame's arrival: a decode
   stage timed from there lies inside it, so the stages (disjoint, in
   order) never sum past the total.  The times are whole seconds plus
   powers of two, exact in floating point. *)
let test_reqtrace_total_covers_decode () =
  let module Reqtrace = Ivm_obs.Reqtrace in
  let was_enabled = Reqtrace.enabled () in
  Reqtrace.set_enabled true;
  Fun.protect ~finally:(fun () -> Reqtrace.set_enabled was_enabled) @@ fun () ->
  let t0 = Float.round (Unix.gettimeofday ()) -. 1.0 in
  let rq = Reqtrace.start ~started:t0 ~sid:0 ~op:"apply" () in
  let mid = t0 +. ldexp 1.0 (-10) and last = t0 +. ldexp 1.0 (-9) in
  Reqtrace.add_stage rq "decode" ~t0 ~t1:mid;
  Reqtrace.add_stage rq "ack" ~t0:mid ~t1:last;
  let total = Option.get (Reqtrace.finish rq) in
  let sum =
    List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Reqtrace.timings rq)
  in
  Alcotest.(check int) "two stages of 2^-10 s" (2 * 976_562) sum;
  Alcotest.(check bool) "total >= sum of stages" true (total >= sum)

let suite =
  [
    Alcotest.test_case "registry: label order canonicalized" `Quick
      test_handle_identity;
    Alcotest.test_case "registry: kind clash rejected" `Quick test_kind_clash;
    Alcotest.test_case "counter: saturates at max_int" `Quick
      test_counter_saturation;
    Alcotest.test_case "histogram: log2 bucketing" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram: percentiles within 2x" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "registry: reset keeps handles live" `Quick
      test_reset_keeps_handles;
    Alcotest.test_case "registry: exact across domains, joined kept" `Quick
      test_exact_across_domains;
    Alcotest.test_case "registry: reset zeroes the work counters" `Quick
      test_reset_zeroes_work;
    Alcotest.test_case "trace: disabled span is transparent" `Quick
      test_span_disabled_passthrough;
    Alcotest.test_case "trace: spans nest by depth and timestamp" `Quick
      test_span_nesting;
    Alcotest.test_case "trace: exception still records the span" `Quick
      test_span_exception;
    Alcotest.test_case "trace: file sink parses back as trace_event" `Quick
      test_trace_file_parse_back;
    Alcotest.test_case "trace: ring buffer wraps, drops counted" `Quick
      test_ring_wraps;
    Alcotest.test_case "trace: multi-domain emit vs toggle vs drain" `Quick
      test_trace_multidomain_stress;
    Alcotest.test_case "stats: nested since attributes to both regions" `Quick
      test_stats_since_nesting;
    Alcotest.test_case "stats: since clamps across reset" `Quick
      test_stats_since_clamps_across_reset;
    Alcotest.test_case "reqtrace: total covers a decode begun before start" `Quick
      test_reqtrace_total_covers_decode;
    q ~count:100 "recompute work strictly dominates counting (Ex 1.1)"
      domination_gen test_recompute_dominates;
  ]
