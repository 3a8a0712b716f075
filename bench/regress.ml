(** [--regress OUT]: the perf-regression harness behind [BENCH_5.json].

    Runs the maintenance algorithms — Counting, DRed, PF, Recompute, and
    counted DRed on the recursive workload (from one-step counts) —
    over deterministic seeded update streams on four workload shapes
    (nonrecursive joins, negation under duplicate semantics, GROUPBY
    aggregation, recursive transitive closure) and records, per
    (workload, algorithm):

    - maintenance latency in ns/op (best of five passes after a warm-up,
      total wall time divided by batch count);
    - minor-heap allocation in words/op ([Gc.minor_words] delta — exact
      and deterministic at one domain, which the harness forces);
    - the evaluator's work counters (probes, tuples scanned, derivations)
      from {!Ivm_eval.Stats} — machine-independent;
    - an MD5 digest of the final database state (every relation, sorted
      tuples with counts) — the bit-identical safety net: any kernel
      change that alters results, not just speed, flips the digest.

    With [--baseline FILE] the run is additionally a gate: the state
    digests must match the baseline exactly, and words/op and the work
    counters — all exactly reproducible — must not regress beyond
    {!tolerance} (25%).  Wall time is gated too, but as a backstop: each
    row is normalized by its own {!calibrate} ratio, the reference loop
    timed between that row's passes and recorded beside it in both
    reports (so a throttled host, a speed phase that changes mid-run, or
    different CI hardware doesn't trip it), and allowed the wider
    {!time_tolerance} (50%) because even a min-of-5 swings tens of
    percent between runs on shared machines.  Exit code 1 on any
    violation — CI runs this against the committed [BENCH_5.json]. *)

open Harness
module Json = Ivm_obs.Json
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Pf = Ivm_baselines.Pf
module Recompute = Ivm.Recompute
module Update_gen = Ivm_workload.Update_gen

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = {
  wname : string;
  wdesc : string;
  recursive : bool;
  db0 : Database.t;
  batches : Changes.t list;
}


(** Mixed costed-edge batch for the 3-column [link(S, D, C)] relation of
    the aggregation workload: [dels] stored tuples out, [ins] fresh
    random costed edges in. *)
let costed_mixed rng db ~nodes ~max_cost ~dels ~ins =
  let program = Database.program db in
  let stored = Database.relation db "link" in
  let del = Update_gen.deletions rng db "link" dels in
  let rec draw k acc =
    if k = 0 then acc
    else
      let t =
        Tuple.of_list
          [
            Value.Int (Prng.int rng nodes);
            Value.Int (Prng.int rng nodes);
            Value.Int (1 + Prng.int rng max_cost);
          ]
      in
      if Relation.mem stored t then draw k acc else draw (k - 1) (t :: acc)
  in
  Changes.merge del (Changes.insertions program "link" (draw ins []))

let w_hop_tri_hop () =
  let nodes = 300 and edges = 1800 and n = 24 in
  let db0, rng = graph_db ~src:Programs.hop_tri_hop ~seed:41 ~nodes ~edges () in
  {
    wname = "hop_tri_hop";
    wdesc =
      Printf.sprintf
        "nonrecursive hop+tri_hop views, random graph (%d nodes, %d edges), \
         %d mixed batches of 3 del + 3 ins"
        nodes edges n;
    recursive = false;
    db0;
    batches =
      cumulative_batches db0 ~track:track_counting ~n (fun tracker ->
          Update_gen.mixed rng tracker "link" ~nodes ~dels:3 ~ins:3);
  }

let w_only_tri_hop () =
  let nodes = 120 and edges = 520 and n = 16 in
  let db0, rng =
    graph_db ~semantics:Database.Duplicate_semantics
      ~src:Programs.only_tri_hop ~seed:43 ~nodes ~edges ()
  in
  {
    wname = "only_tri_hop";
    wdesc =
      Printf.sprintf
        "negation (Example 6.1) under duplicate semantics, random graph \
         (%d nodes, %d edges), %d mixed batches of 2 del + 2 ins"
        nodes edges n;
    recursive = false;
    db0;
    batches =
      cumulative_batches db0 ~track:track_counting ~n (fun tracker ->
          Update_gen.mixed rng tracker "link" ~nodes ~dels:2 ~ins:2);
  }

let w_min_cost_hop () =
  let nodes = 150 and edges = 900 and max_cost = 40 and n = 16 in
  let db0, rng =
    costed_graph_db ~src:Programs.min_cost_hop ~seed:45 ~nodes ~edges
      ~max_cost ()
  in
  {
    wname = "min_cost_hop";
    wdesc =
      Printf.sprintf
        "MIN-cost aggregation (Example 6.2), costed random graph (%d nodes, \
         %d edges, cost ≤ %d), %d mixed batches of 2 del + 2 ins"
        nodes edges max_cost n;
    recursive = false;
    db0;
    batches =
      cumulative_batches db0 ~track:track_counting ~n (fun tracker ->
          costed_mixed rng tracker ~nodes ~max_cost ~dels:2 ~ins:2);
  }

let w_transitive_closure () =
  let layers = 8 and width = 6 and out_degree = 2 and n = 12 in
  let db0, rng =
    layered_db ~src:Programs.transitive_closure ~seed:47 ~layers ~width
      ~out_degree ()
  in
  {
    wname = "transitive_closure";
    wdesc =
      Printf.sprintf
        "recursive transitive closure, layered DAG (%d layers × %d, \
         out-degree %d), %d single-deletion batches"
        layers width out_degree n;
    recursive = true;
    db0;
    batches =
      cumulative_batches db0 ~track:track_dred ~n (fun tracker ->
          Update_gen.deletions rng tracker "link" 1);
  }

(* ------------------------------------------------------------------ *)
(* Algorithms                                                           *)
(* ------------------------------------------------------------------ *)

type algo = {
  aname : string;
  supports : workload -> string option;  (** [Some reason] when unsupported *)
  setup : Database.t -> Database.t;  (** the stored state it starts from *)
  maintain : Database.t -> Changes.t -> unit;
}

let algos =
  [
    {
      aname = "counting";
      supports =
        (fun w ->
          if w.recursive then
            Some "recursive program (Counting is Algorithm 4.1, nonrecursive only)"
          else None);
      setup = Fun.id;
      maintain = (fun db c -> ignore (Counting.maintain db c));
    };
    {
      aname = "dred";
      supports =
        (fun w ->
          if Database.semantics w.db0 = Database.Duplicate_semantics then
            Some "duplicate semantics (DRed is set-semantics only)"
          else None);
      setup = Fun.id;
      maintain = (fun db c -> ignore (Dred.maintain db c));
    };
    {
      aname = "pf";
      supports =
        (fun w ->
          if Database.semantics w.db0 = Database.Duplicate_semantics then
            Some "duplicate semantics (PF delegates to DRed, set-semantics only)"
          else None);
      setup = Fun.id;
      maintain = (fun db c -> ignore (Pf.maintain db c));
    };
    {
      aname = "recompute";
      supports = (fun _ -> None);
      setup = Fun.id;
      maintain = (fun db c -> Recompute.maintain db c);
    };
    {
      aname = "dred-counted";
      supports =
        (fun w ->
          if not w.recursive then
            Some "nonrecursive program (counted DRed runs the recursive workload)"
          else None);
      setup = counted_copy;
      maintain = (fun db c -> ignore (Dred.maintain ~mode:Dred.Counted db c));
    };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

(** Canonical digest of the whole database state: every relation (base
    and derived), predicates sorted, tuples sorted with counts. *)
let state_digest db =
  let program = Database.program db in
  let preds =
    List.sort String.compare
      (Program.base_preds program @ Program.derived_preds program)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun p -> p ^ " = " ^ Relation.to_string (Database.relation db p))
             preds)))

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                            *)
(* ------------------------------------------------------------------ *)

(** A fixed, deterministic mix of allocation, hashing and hashtable
    traffic — it measures the machine (and its current thermal/steal
    state), not the kernel.  The gate divides measured ns/op by the
    calibration ratio before comparing against the baseline, so a
    throttled container or a differently-provisioned CI runner trips the
    time checks only when the {e kernel} got slower relative to the
    machine, not when the machine itself did.  One run, in ns: a row
    times it before each of its passes and keeps the best, so its ratio
    reads the host in the same speed phase as the row's own passes. *)
let calibrate () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 300_000 do
    Hashtbl.replace h (i land 8191, i * 7) i;
    match Hashtbl.find_opt h ((i * 13) land 8191, i) with
    | Some v -> acc := !acc + v
    | None -> incr acc
  done;
  ignore (Sys.opaque_identity !acc);
  (Unix.gettimeofday () -. t0) *. 1e9

type sample = {
  s_algo : string;
  s_supported : bool;
  s_reason : string;
  s_ns_per_op : float;
  s_calib_ns : float;  (** the reference loop, best of the runs between passes *)
  s_words_per_op : float;
  s_probes : int;
  s_scanned : int;
  s_derivations : int;
  s_digest : string;
}

(** One full pass: the whole batch stream applied cumulatively to a fresh
    copy of [db0].  Returns wall seconds, minor words allocated, the work
    counter deltas and the final database. *)
let one_pass w db0 algo =
  let db = Database.copy db0 in
  let before = Stats.snapshot () in
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  List.iter (fun c -> algo.maintain db c) w.batches;
  let dt = Unix.gettimeofday () -. t0 in
  let mw = Gc.minor_words () -. mw0 in
  (dt, mw, Stats.since before, db)

let run_algo w algo : sample =
  match algo.supports w with
  | Some reason ->
    {
      s_algo = algo.aname;
      s_supported = false;
      s_reason = reason;
      s_ns_per_op = 0.;
      s_calib_ns = 0.;
      s_words_per_op = 0.;
      s_probes = 0;
      s_scanned = 0;
      s_derivations = 0;
      s_digest = "";
    }
  | None -> begin
    let nops = float_of_int (List.length w.batches) in
    let db0 = algo.setup w.db0 in
    ignore (one_pass w db0 algo) (* warm-up: demand-built indexes, caches *);
    let best_t = ref infinity and best_mw = ref infinity in
    let best_calib = ref infinity in
    let work = ref None and digest = ref "" in
    for _ = 1 to 5 do
      (* The reference loop runs before each pass, so the row's ratio
         reads the host in the row's own speed phase.  Each starts from
         a compacted heap: carried-over garbage (the previous pass's,
         the loop's, the previous algorithm's) otherwise bleeds
         major-GC time into whichever run it falls on. *)
      Gc.compact ();
      best_calib := Float.min !best_calib (calibrate ());
      Gc.compact ();
      let dt, mw, wk, db = one_pass w db0 algo in
      if dt < !best_t then best_t := dt;
      if mw < !best_mw then best_mw := mw;
      work := Some wk;
      digest := state_digest db
    done;
    let wk = Option.get !work in
    {
      s_algo = algo.aname;
      s_supported = true;
      s_reason = "";
      s_ns_per_op = !best_t *. 1e9 /. nops;
      s_calib_ns = !best_calib;
      s_words_per_op = !best_mw /. nops;
      s_probes = wk.Stats.snap_probes;
      s_scanned = wk.Stats.snap_tuples_scanned;
      s_derivations = wk.Stats.snap_derivations;
      s_digest = !digest;
    }
  end

let sample_json s : Json.t =
  if not s.s_supported then
    Json.Obj
      [
        ("algorithm", Json.Str s.s_algo);
        ("supported", Json.Bool false);
        ("reason", Json.Str s.s_reason);
      ]
  else
    Json.Obj
      [
        ("algorithm", Json.Str s.s_algo);
        ("supported", Json.Bool true);
        ("ns_per_op", Json.Num s.s_ns_per_op);
        ("calib_ns", Json.Num s.s_calib_ns);
        ("minor_words_per_op", Json.Num s.s_words_per_op);
        ("probes", Json.int s.s_probes);
        ("tuples_scanned", Json.int s.s_scanned);
        ("derivations", Json.int s.s_derivations);
        ("state_digest", Json.Str s.s_digest);
      ]

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                  *)
(* ------------------------------------------------------------------ *)

type verdict = { v_what : string; v_ok : bool; v_msg : string }

let compare_num ~tol ~what ~base ~cur =
  (* A regression is only the upward direction; tiny absolute values are
     exempt from the ratio test (timer noise on sub-microsecond ops). *)
  let ok = cur <= (base *. (1. +. tol)) +. 1e-9 || cur -. base < 64. in
  {
    v_what = what;
    v_ok = ok;
    v_msg =
      Printf.sprintf "%s: baseline %.0f, current %.0f (%+.1f%%)" what base cur
        (if base > 0. then (cur -. base) /. base *. 100. else 0.);
  }

let lookup_sample json ~workload ~algo =
  match Json.member "workloads" json with
  | Some (Json.List ws) ->
    List.find_map
      (fun w ->
        match Json.member "workload" w with
        | Some (Json.Str n) when n = workload -> (
          match Json.member "algorithms" w with
          | Some (Json.List als) ->
            List.find_map
              (fun a ->
                match Json.member "algorithm" a with
                | Some (Json.Str n) when n = algo -> Some a
                | _ -> None)
              als
          | _ -> None)
        | _ -> None)
      ws
  | _ -> None

let num_field name j =
  match Json.member name j with Some (Json.Num f) -> Some f | _ -> None

(* A row's wall-time normalization: its reference-loop time over the
   baseline row's.  A baseline row without a [calib_ns], or a degenerate
   ratio, gates on raw wall time. *)
let time_scale b (s : sample) =
  match num_field "calib_ns" b with
  | Some c ->
    let ratio = s.s_calib_ns /. c in
    if ratio > 0.1 && ratio < 10. then ratio else 1.
  | None -> 1.

let check_against_baseline ~tol ~time_tol baseline (w : workload)
    (s : sample) : verdict list =
  if not s.s_supported then []
  else
    match lookup_sample baseline ~workload:w.wname ~algo:s.s_algo with
    | None ->
      [
        {
          v_what = w.wname ^ "/" ^ s.s_algo;
          v_ok = true;
          v_msg = "not in baseline (new entry)";
        };
      ]
    | Some b ->
      let tag what = Printf.sprintf "%s/%s %s" w.wname s.s_algo what in
      let digest_v =
        let base_digest =
          match Json.member "state_digest" b with
          | Some (Json.Str d) -> d
          | _ -> ""
        in
        {
          v_what = tag "state_digest";
          v_ok = String.equal base_digest s.s_digest;
          v_msg =
            (if String.equal base_digest s.s_digest then
               Printf.sprintf "%s: states bit-identical (%s)"
                 (tag "state_digest") s.s_digest
             else
               Printf.sprintf
                 "%s: FINAL STATE DIVERGED (baseline %s, current %s)"
                 (tag "state_digest") base_digest s.s_digest);
        }
      in
      let nums =
        List.filter_map
          (fun (name, tol, cur) ->
            match num_field name b with
            | Some base ->
              Some (compare_num ~tol ~what:(tag name) ~base ~cur)
            | None -> None)
          [
            (* Wall time is the only nondeterministic metric: even a
               min-of-5 swings ±30% between runs on a noisy shared
               host, so it gets its own (wider) tolerance as a backstop
               against gross regressions.  Allocation, counters and
               digests are exact, so [tol] on them catches any real
               change. *)
            ("ns_per_op", time_tol, s.s_ns_per_op /. time_scale b s);
            ("minor_words_per_op", tol, s.s_words_per_op);
            ("probes", tol, float_of_int s.s_probes);
            ("tuples_scanned", tol, float_of_int s.s_scanned);
            ("derivations", tol, float_of_int s.s_derivations);
          ]
      in
      digest_v :: nums

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let fmt_words w =
  if w >= 1e6 then Printf.sprintf "%.2fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

(** Allowed drift of the exactly reproducible metrics: words/op and the
    probe/scan/derivation counters. *)
let tolerance = 0.25

(** Allowed drift of calibrated wall time, the nondeterministic backstop. *)
let time_tolerance = 0.5

let run ~out ?baseline () =
  (* One domain: minor-word and counter measurements are exact and
     deterministic only without parallel fan-out. *)
  let prev_domains = Ivm_par.domains () in
  Ivm_par.set_domains 1;
  let attribution_prev = Ivm_obs.Attribution.enabled () in
  Ivm_obs.Attribution.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Ivm_par.set_domains prev_domains;
      Ivm_obs.Attribution.set_enabled attribution_prev)
    (fun () ->
      let workloads =
        [
          w_hop_tri_hop (); w_only_tri_hop (); w_min_cost_hop ();
          w_transitive_closure ();
        ]
      in
      let results =
        List.map (fun w -> (w, List.map (run_algo w) algos)) workloads
      in
      Printf.printf "\nbench --regress (1 domain, best of 5 passes)\n";
      Printf.printf "============================================\n";
      List.iter
        (fun (w, samples) ->
          Printf.printf "\n%s — %s\n" w.wname w.wdesc;
          print_table
            [ "algorithm"; "ns/op"; "calib"; "minor words/op"; "probes"; "scanned";
              "state digest" ]
            (List.map
               (fun s ->
                 if not s.s_supported then
                   [ s.s_algo; "n/a"; "n/a"; "n/a"; "n/a"; "n/a"; "n/a" ]
                 else
                   [
                     s.s_algo;
                     fmt_time (s.s_ns_per_op /. 1e9);
                     fmt_time (s.s_calib_ns /. 1e9);
                     fmt_words s.s_words_per_op;
                     string_of_int s.s_probes;
                     string_of_int s.s_scanned;
                     String.sub s.s_digest 0 12;
                   ])
               samples))
        results;
      let doc =
        Json.Obj
          [
            ("report", Json.Str "ivm bench regress");
            ("schema", Json.int 2);
            ("domains", Json.int 1);
            ("tolerance", Json.Num tolerance);
            ( "workloads",
              Json.List
                (List.map
                   (fun (w, samples) ->
                     Json.Obj
                       [
                         ("workload", Json.Str w.wname);
                         ("description", Json.Str w.wdesc);
                         ("batches", Json.int (List.length w.batches));
                         ( "algorithms",
                           Json.List (List.map sample_json samples) );
                       ])
                   results) );
          ]
      in
      Out_channel.with_open_text out (fun oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n');
      Printf.printf "\nregress report written to %s\n" out;
      match baseline with
      | None -> ()
      | Some file ->
        let base = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
        Printf.printf
          "\ncalibration: each row's time gate is normalized by its own \
           reference-loop ratio to the baseline row's\n";
        let verdicts =
          List.concat_map
            (fun (w, samples) ->
              List.concat_map
                (check_against_baseline ~tol:tolerance ~time_tol:time_tolerance base w)
                samples)
            results
        in
        let failures = List.filter (fun v -> not v.v_ok) verdicts in
        Printf.printf "\nbaseline gate vs %s (tolerance %.0f%%): %d checks, %d failed\n"
          file (tolerance *. 100.) (List.length verdicts) (List.length failures);
        List.iter
          (fun v ->
            if not v.v_ok then Printf.printf "  REGRESSION %s\n" v.v_msg)
          failures;
        if failures <> [] then exit 1;
        Printf.printf "  all within tolerance; all final states bit-identical\n")
