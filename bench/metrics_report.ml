(** [--metrics-json OUT]: machine-readable per-experiment metrics report.

    Runs every maintenance algorithm — Counting, DRed, PF, Recompute —
    against the same deterministic update streams on two workload shapes
    (the nonrecursive hop/tri_hop views of Examples 1.1/4.2 over a random
    graph, and recursive transitive closure over a layered DAG) and emits
    one JSON document with per-algorithm work counters (derivations,
    probes, tuples scanned, rule applications, DRed/PF rederivation work)
    and wall-clock latency percentiles, plus a dump of the full metrics
    registry.  Each batch runs against a fresh copy of the initial
    database so the generated deletions stay valid for every algorithm. *)

open Harness
module Json = Ivm_obs.Json
module Metrics = Ivm_obs.Metrics
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Pf = Ivm_baselines.Pf
module Recompute = Ivm_baselines.Recompute

(* Exact percentiles over the collected per-batch samples (nearest-rank). *)
let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let latency_json samples =
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let mean =
    if n = 0 then 0. else Array.fold_left ( +. ) 0. sorted /. float_of_int n
  in
  Json.Obj
    [
      ("p50_ns", Json.Num (percentile sorted 0.5));
      ("p90_ns", Json.Num (percentile sorted 0.9));
      ("p99_ns", Json.Num (percentile sorted 0.99));
      ("max_ns", Json.Num (if n = 0 then 0. else sorted.(n - 1)));
      ("mean_ns", Json.Num mean);
    ]

(* DRed exposes its rederivation work through the registry; PF returns it
   per call.  Read the DRed counters via their (shared) handles so a
   before/after delta isolates one run. *)
let dred_rederived_c = Metrics.counter "ivm_dred_rederived_total"
let dred_overdeleted_c = Metrics.counter "ivm_dred_overdeleted_total"

type runner = {
  algo : string;
  supported : bool;
  reason : string;
  (* returns (rederived, overdeleted) for the delete/rederive family *)
  run : Database.t -> Changes.t -> int * int;
}

let counting_runner ~recursive =
  {
    algo = "counting";
    supported = not recursive;
    reason = (if recursive then "recursive program (Counting is Algorithm 4.1, nonrecursive only)" else "");
    run = (fun db c -> ignore (Counting.maintain db c); (0, 0));
  }

let dred_runner =
  {
    algo = "dred";
    supported = true;
    reason = "";
    run =
      (fun db c ->
        let r0 = Metrics.counter_value dred_rederived_c
        and o0 = Metrics.counter_value dred_overdeleted_c in
        ignore (Dred.maintain db c);
        ( Metrics.counter_value dred_rederived_c - r0,
          Metrics.counter_value dred_overdeleted_c - o0 ));
  }

let pf_runner =
  {
    algo = "pf";
    supported = true;
    reason = "";
    run =
      (fun db c ->
        let s = Pf.maintain db c in
        (s.Pf.rederived, s.Pf.overdeleted));
  }

let recompute_runner =
  {
    algo = "recompute";
    supported = true;
    reason = "";
    run = (fun db c -> Recompute.maintain db c; (0, 0));
  }

(** Run [runner] over [batches], each against a fresh copy of [db0];
    report summed work counters and latency percentiles. *)
let run_algorithm db0 batches runner : Json.t =
  if not runner.supported then
    Json.Obj
      [
        ("algorithm", Json.Str runner.algo);
        ("supported", Json.Bool false);
        ("reason", Json.Str runner.reason);
      ]
  else begin
    let latencies = ref [] in
    let derivations = ref 0 and probes = ref 0 and scanned = ref 0 in
    let rule_apps = ref 0 and rederived = ref 0 and overdeleted = ref 0 in
    List.iter
      (fun changes ->
        let db = Database.copy db0 in
        let before = Stats.snapshot () in
        let t0 = Unix.gettimeofday () in
        let rd, od = runner.run db changes in
        let dt_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
        let w = Stats.since before in
        latencies := dt_ns :: !latencies;
        derivations := !derivations + w.Stats.snap_derivations;
        probes := !probes + w.Stats.snap_probes;
        scanned := !scanned + w.Stats.snap_tuples_scanned;
        rule_apps := !rule_apps + w.Stats.snap_rule_applications;
        rederived := !rederived + rd;
        overdeleted := !overdeleted + od)
      batches;
    Json.Obj
      [
        ("algorithm", Json.Str runner.algo);
        ("supported", Json.Bool true);
        ("batches", Json.int (List.length batches));
        ("derivations", Json.int !derivations);
        ("probes", Json.int !probes);
        ("tuples_scanned", Json.int !scanned);
        ("rule_applications", Json.int !rule_apps);
        ("rederived", Json.int !rederived);
        ("overdeleted", Json.int !overdeleted);
        ("latency", latency_json !latencies);
      ]
  end

let workload_json ~name ~description ~recursive db0 batches : Json.t =
  let runners =
    [ counting_runner ~recursive; dred_runner; pf_runner; recompute_runner ]
  in
  Json.Obj
    [
      ("workload", Json.Str name);
      ("description", Json.Str description);
      ("batches", Json.int (List.length batches));
      ("algorithms", Json.List (List.map (run_algorithm db0 batches) runners));
    ]

(* ------------------------------------------------------------------ *)
(* Parallel sweep: counting maintenance at 1/2/4 domains               *)
(* ------------------------------------------------------------------ *)

(** Canonical dump of every derived relation — sorted predicates, sorted
    tuples with counts — for the byte-identical cross-domain check. *)
let derived_state db =
  let program = Database.program db in
  String.concat "\n"
    (List.map
       (fun p -> p ^ " = " ^ Relation.to_string (Database.relation db p))
       (List.sort String.compare (Program.derived_preds program)))

(** Maintain the same seeded update stream with Counting at 1, 2 and 4
    domains: wall-clock per domain count, speedup vs sequential, and
    whether the final view states are byte-identical (they must be — the
    ⊎-merge runs in fixed task order whatever the domain count). *)
let parallel_sweep () : Json.t =
  let nodes = 400 and edges = 2500 and n_batches = 12 in
  let db0, rng = graph_db ~src:Programs.hop_tri_hop ~seed:29 ~nodes ~edges () in
  (* The sweep applies the stream cumulatively to one database, so each
     batch must be generated against the state left by its predecessors —
     a tracking copy keeps the deletions valid. *)
  let batches =
    let tracker = Database.copy db0 in
    List.init n_batches (fun _ ->
        let c = Update_gen.mixed rng tracker "link" ~nodes ~dels:6 ~ins:6 in
        ignore (Counting.maintain tracker c);
        c)
  in
  let run_with domains =
    Ivm_par.set_domains domains;
    let db = Database.copy db0 in
    let t0 = Unix.gettimeofday () in
    List.iter (fun c -> ignore (Counting.maintain db c)) batches;
    let dt_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    (dt_ns, derived_state db)
  in
  let prev = Ivm_par.domains () in
  let results = List.map (fun d -> (d, run_with d)) [ 1; 2; 4 ] in
  Ivm_par.set_domains prev;
  (* retire the sweep's worker domains: idle, they still join every
     stop-the-world collection of the experiments that follow *)
  Ivm_par.shutdown ();
  let t1, s1 = List.assoc 1 results in
  Json.Obj
    [
      ("workload", Json.Str "hop_tri_hop_large");
      ( "description",
        Printf.sprintf
          "nonrecursive hop+tri_hop views, random graph (%d nodes, %d edges), \
           %d mixed batches of 6 del + 6 ins, counting maintenance"
          nodes edges n_batches
        |> fun s -> Json.Str s );
      ("algorithm", Json.Str "counting");
      ("cores_available", Json.int (Domain.recommended_domain_count ()));
      ( "sweep",
        Json.List
          (List.map
             (fun (d, (dt_ns, state)) ->
               Json.Obj
                 [
                   ("domains", Json.int d);
                   ("total_ns", Json.Num dt_ns);
                   ("speedup_vs_1_domain", Json.Num (t1 /. dt_ns));
                   ("state_identical_to_1_domain", Json.Bool (String.equal state s1));
                 ])
             results) );
    ]

(* ------------------------------------------------------------------ *)
(* E15: cost-attribution overhead — maintenance with per-rule           *)
(* attribution on vs off, Counting and DRed on the same update stream  *)
(* ------------------------------------------------------------------ *)

(** Time one cumulative pass of [batches] over a fresh copy of [db0]
    with attribution forced to [enabled].  Each batch is bracketed by
    [batch_begin]/[batch_end] as [View_manager] brackets it, so the on
    passes pay for the whole instrument: the per-task samples, their
    fold into the open batch, and the batch's finalization. *)
let timed_pass db0 batches ~algorithm maintain enabled =
  Ivm_obs.Attribution.set_enabled enabled;
  let db = Database.copy db0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun c ->
      let b0 = Unix.gettimeofday () in
      Ivm_obs.Attribution.batch_begin ~algorithm;
      ignore (maintain db c);
      ignore
        (Ivm_obs.Attribution.batch_end
           ~total_wall_ns:(int_of_float ((Unix.gettimeofday () -. b0) *. 1e9))))
    batches;
  (Unix.gettimeofday () -. t0) *. 1e9

let overhead_pairs = 15

(** Median off and on pass times over [overhead_pairs] off/on pairs run
    back to back after one warm-up of each, so drift in machine speed
    lands on both sides alike. *)
let off_on db0 batches ~algorithm maintain =
  let prev = Ivm_obs.Attribution.enabled () in
  let pass = timed_pass db0 batches ~algorithm maintain in
  ignore (pass false);
  ignore (pass true);
  let pairs =
    List.init overhead_pairs (fun _ ->
        let off = pass false in
        (off, pass true))
  in
  Ivm_obs.Attribution.set_enabled prev;
  let median l = percentile (Array.of_list (List.sort compare l)) 0.5 in
  (median (List.map fst pairs), median (List.map snd pairs))

(** E15: what does per-rule cost attribution cost?  The same seeded
    stream of mixed update batches is maintained with attribution off
    and on, for Counting and for DRed; the acceptance bar is ≤10%
    overhead (EXPERIMENTS.md E15). *)
let attribution_overhead () : Json.t =
  let nodes = 200 and edges = 1000 and n_batches = 40 in
  let db0, rng = graph_db ~src:Programs.hop_tri_hop ~seed:31 ~nodes ~edges () in
  (* Cumulative stream: generate each batch against the state left by its
     predecessors so the deletions stay valid for every timed pass. *)
  let batches =
    let tracker = Database.copy db0 in
    List.init n_batches (fun _ ->
        let c = Update_gen.mixed rng tracker "link" ~nodes ~dels:3 ~ins:3 in
        ignore (Counting.maintain tracker c);
        c)
  in
  let algo name maintain =
    let off_ns, on_ns = off_on db0 batches ~algorithm:name maintain in
    Json.Obj
      [
        ("algorithm", Json.Str name);
        ("off_ns", Json.Num off_ns);
        ("on_ns", Json.Num on_ns);
        ("overhead_pct", Json.Num ((on_ns -. off_ns) /. off_ns *. 100.));
      ]
  in
  Json.Obj
    [
      ("experiment", Json.Str "attribution_overhead");
      ( "description",
        Json.Str
          (Printf.sprintf
             "per-rule cost attribution on vs off: hop+tri_hop views, random \
              graph (%d nodes, %d edges), %d mixed batches of 3 del + 3 ins, \
              each bracketed as a maintenance batch; medians of %d off/on \
              pass pairs after warm-up"
             nodes edges n_batches overhead_pairs) );
      ("batches", Json.int n_batches);
      ( "algorithms",
        Json.List
          [
            algo "counting" (fun db c -> ignore (Counting.maintain db c));
            algo "dred" (fun db c -> ignore (Dred.maintain db c));
          ] );
    ]

(** E17: what does derivation-provenance capture cost?  Same protocol as
    E15: a seeded stream of mixed update batches maintained with capture
    off and on (the enabled passes bootstrap the support store before the
    clock starts), for Counting and for DRed.  The acceptance bar is ≤2%
    with capture off — the hooks are a single atomic load — and the
    capture-on overhead is recorded as EXPERIMENTS.md E17. *)
let provenance_overhead () : Json.t =
  let nodes = 200 and edges = 1000 and n_batches = 40 in
  let db0, rng = graph_db ~src:Programs.hop_tri_hop ~seed:37 ~nodes ~edges () in
  let batches =
    let tracker = Database.copy db0 in
    List.init n_batches (fun _ ->
        let c = Update_gen.mixed rng tracker "link" ~nodes ~dels:3 ~ins:3 in
        ignore (Counting.maintain tracker c);
        c)
  in
  let timed_pass enabled maintain =
    let measure () =
      let db = Database.copy db0 in
      if enabled then begin
        Ivm_prov.Prov.reset ();
        Ivm_prov.Prov.set_enabled true;
        Ivm_prov.Prov.set_mode Ivm_prov.Prov.Add;
        (* bootstrap (support store for the initial materialization) is
           setup cost, not per-batch cost: outside the clock *)
        Ivm_eval.Seminaive.replay_derivations db
      end;
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun c ->
          if enabled then Ivm_prov.Prov.batch_begin ~algorithm:"bench";
          ignore (maintain db c))
        batches;
      let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
      if enabled then Ivm_prov.Prov.set_enabled false;
      dt
    in
    ignore (measure ());
    let best = ref infinity in
    for _ = 1 to 3 do
      let dt = measure () in
      if dt < !best then best := dt
    done;
    !best
  in
  let algo name maintain =
    let off_ns = timed_pass false maintain in
    let on_ns = timed_pass true maintain in
    Json.Obj
      [
        ("algorithm", Json.Str name);
        ("off_ns", Json.Num off_ns);
        ("on_ns", Json.Num on_ns);
        ("overhead_pct", Json.Num ((on_ns -. off_ns) /. off_ns *. 100.));
      ]
  in
  Json.Obj
    [
      ("experiment", Json.Str "provenance_overhead");
      ( "description",
        Json.Str
          (Printf.sprintf
             "derivation-provenance capture on vs off: hop+tri_hop views, \
              random graph (%d nodes, %d edges), %d mixed batches of 3 del + \
              3 ins, best of 3 passes after warm-up; enabled passes \
              bootstrap the support store before timing"
             nodes edges n_batches) );
      ("batches", Json.int n_batches);
      ( "algorithms",
        Json.List
          [
            algo "counting" (fun db c -> ignore (Counting.maintain db c));
            algo "dred" (fun db c -> ignore (Dred.maintain db c));
          ] );
    ]

(** Build the report and write it to [out]. *)
let run ~out () =
  Metrics.reset ();
  (* Workload 1: Example 1.1/4.2 views over a random graph, mixed updates. *)
  let w1 =
    let nodes = 200 and edges = 1000 and n_batches = 25 in
    let db0, rng = graph_db ~src:Programs.hop_tri_hop ~seed:21 ~nodes ~edges () in
    let batches =
      List.init n_batches (fun _ ->
          Update_gen.mixed rng db0 "link" ~nodes ~dels:2 ~ins:2)
    in
    workload_json ~name:"hop_tri_hop"
      ~description:
        (Printf.sprintf
           "nonrecursive hop+tri_hop views, random graph (%d nodes, %d \
            edges), %d mixed batches of 2 del + 2 ins"
           nodes edges n_batches)
      ~recursive:false db0 batches
  in
  (* Workload 2: recursive transitive closure over a layered DAG. *)
  let w2 =
    let layers = 8 and width = 6 and out_degree = 2 and n_batches = 15 in
    let db0, rng =
      layered_db ~src:Programs.transitive_closure ~seed:23 ~layers ~width
        ~out_degree ()
    in
    let batches =
      List.init n_batches (fun _ -> Update_gen.deletions rng db0 "link" 1)
    in
    workload_json ~name:"transitive_closure"
      ~description:
        (Printf.sprintf
           "recursive transitive closure, layered DAG (%d layers × %d, \
            out-degree %d), %d single-deletion batches"
           layers width out_degree n_batches)
      ~recursive:true db0 batches
  in
  (* Bind before building the record: list elements evaluate right to
     left, and the registry dump must see the sweep's per-domain
     counters. *)
  let sweep = parallel_sweep () in
  let attribution = attribution_overhead () in
  let provenance = provenance_overhead () in
  let doc =
    Json.Obj
      [
        ("report", Json.Str "ivm bench metrics");
        ("workloads", Json.List [ w1; w2 ]);
        ("parallel_sweep", sweep);
        ("attribution_overhead", attribution);
        ("provenance_overhead", provenance);
        ("registry", Metrics.to_json ());
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "metrics report written to %s\n" out
