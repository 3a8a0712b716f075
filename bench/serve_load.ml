(* Load generator for the view server (EXPERIMENTS.md E18).

   Starts an in-process Ivm_serve.Server on an ephemeral port over a
   durable store, then hammers it with K client domains, each issuing an
   80/20 query/apply mix over real sockets.  Reports per-op p50/p99
   latency, throughput, the group-commit amortization the single-writer
   achieved under concurrency (batches per fsync), the server-side
   per-stage latency decomposition from the ivm_serve_stage_ns
   histograms (E19 — run once with IVM_REQTRACE=0 to measure the
   tracing overhead), and asserts that not one protocol error occurred.
   Stage means are exact (histogram sum / count); stage percentiles are
   log2 bucket upper bounds, within 2x of the true value.

     dune exec bench/serve_load.exe -- --clients 8 --seconds 3 *)

module Vm = Ivm.View_manager
module Server = Ivm_serve.Server
module Snap_pub = Ivm_serve.Snap_pub
module Client = Ivm_serve.Client
module Relation = Ivm_relation.Relation
module Metrics = Ivm_obs.Metrics
module Reqtrace = Ivm_obs.Reqtrace
module Json = Ivm_obs.Json

let usage =
  "serve_load [--clients K] [--seconds S] [--readers N] [--dir DIR] [--batch \
   T] [--full-publish] [--hold-snapshot MS] [--json OUT] [--gate BASELINE]"

let clients = ref 8
let seconds = ref 3.0
let readers = ref 2
let dir = ref ""
let batch = ref 2
let full_publish = ref false
let hold_ms = ref 0
let json_out = ref ""
let gate = ref ""

let rec parse_args = function
  | [] -> ()
  | "--clients" :: k :: rest ->
    clients := int_of_string k;
    parse_args rest
  | "--seconds" :: s :: rest ->
    seconds := float_of_string s;
    parse_args rest
  | "--readers" :: n :: rest ->
    readers := int_of_string n;
    parse_args rest
  | "--dir" :: d :: rest ->
    dir := d;
    parse_args rest
  | "--batch" :: t :: rest ->
    batch := max 1 (int_of_string t);
    parse_args rest
  | "--full-publish" :: rest ->
    full_publish := true;
    parse_args rest
  | "--hold-snapshot" :: ms :: rest ->
    hold_ms := int_of_string ms;
    parse_args rest
  | "--json" :: f :: rest ->
    json_out := f;
    parse_args rest
  | "--gate" :: f :: rest ->
    gate := f;
    parse_args rest
  | x :: _ ->
    Printf.eprintf "unknown argument %s\nusage: %s\n" x usage;
    exit 2

(* nearest rank: the ceil(p·n)-th smallest sample *)
let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0
  | n ->
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let program_source () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "hop(X, Y) :- link(X, Z), link(Z, Y).\n";
  for i = 0 to 99 do
    Buffer.add_string buf (Printf.sprintf "link(s%d, s%d).\n" i ((i + 1) mod 100))
  done;
  Buffer.contents buf

type worker_result = {
  queries : int array;  (** latencies, ns *)
  applies : int array;
  errors : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let fact pred s =
  match Vm.parse_fact (Printf.sprintf "%s(%s)" pred s) with
  | Ok (p, t) -> (p, t)
  | Error msg -> failwith msg

let worker ~port ~id ~deadline () : worker_result =
  let c = Client.connect ~port () in
  let queries = ref [] and applies = ref [] and errors = ref 0 in
  let n = ref 0 in
  (try
     while Unix.gettimeofday () < deadline do
       incr n;
       let t0 = now_ns () in
       (try
          if !n mod 5 = 0 then begin
            (* a private edge chain of --batch tuples: deterministic,
               never collides across clients, keeps the hop view
               growing *)
            let i = !n / 5 in
            let node j = Printf.sprintf "c%d_%d_%d" id i j in
            let entries =
              List.init !batch (fun j ->
                  let _, t =
                    fact "link"
                      (Printf.sprintf "%s, %s" (node j) (node (j + 1)))
                  in
                  (t, 1))
            in
            let delta = Relation.of_list 2 entries in
            let _seq, _deltas = Client.apply c [ ("link", delta) ] in
            applies := (now_ns () - t0) :: !applies
          end
          else begin
            let _cols, _rows =
              Client.query c (Printf.sprintf "hop(s%d, X)" (!n * 7 mod 100))
            in
            queries := (now_ns () - t0) :: !queries
          end
        with Client.Server_error _ | Client.Unexpected _ -> incr errors)
     done
   with e ->
     incr errors;
     Printf.eprintf "client %d died: %s\n%!" id (Printexc.to_string e));
  Client.close c;
  {
    queries = Array.of_list !queries;
    applies = Array.of_list !applies;
    errors = !errors;
  }

let () =
  parse_args (List.tl (Array.to_list Sys.argv));
  let dir =
    if !dir <> "" then !dir
    else begin
      let d = Filename.temp_file "ivm_serve_load" "" in
      Sys.remove d;
      d
    end
  in
  let vm = Vm.of_source ~durable:dir (program_source ()) in
  let config =
    {
      Server.default_config with
      readers = !readers;
      full_publish = !full_publish;
    }
  in
  let srv = Server.start ~config ~vm ~port:0 () in
  let port = Server.port srv in
  Printf.printf
    "serve_load: %d clients x %.1fs against 127.0.0.1:%d (%d readers, batch \
     %d%s%s, durable %s)\n\
     %!"
    !clients !seconds port !readers !batch
    (if !full_publish then ", full-publish" else "")
    (if !hold_ms > 0 then Printf.sprintf ", hold %dms" !hold_ms else "")
    dir;
  let deadline = Unix.gettimeofday () +. !seconds in
  (* --hold-snapshot: an out-of-band holder pins the published snapshot
     on the server's spare cell for MS at a time, forcing the writer
     through its bounded waits and into counted full-copy fallbacks *)
  let holder_stop = Atomic.make false in
  let holder =
    if !hold_ms <= 0 then None
    else
      Some
        (Domain.spawn (fun () ->
             let pub = Server.publisher srv in
             let cell = !readers in
             while not (Atomic.get holder_stop) do
               let _db = Snap_pub.acquire pub ~reader:cell in
               Unix.sleepf (float_of_int !hold_ms /. 1000.);
               Snap_pub.release pub ~reader:cell;
               Unix.sleepf 0.001
             done))
  in
  let workers =
    List.init !clients (fun id ->
        Domain.spawn (worker ~port ~id ~deadline))
  in
  let results = List.map Domain.join workers in
  Atomic.set holder_stop true;
  (match holder with Some d -> Domain.join d | None -> ());
  let stats = Server.stats srv in
  let pub_stats = Snap_pub.stats (Server.publisher srv) in
  Server.stop srv;
  let all sel =
    let a = Array.concat (List.map sel results) in
    Array.sort compare a;
    a
  in
  let q = all (fun r -> r.queries) and a = all (fun r -> r.applies) in
  let errors = List.fold_left (fun acc r -> acc + r.errors) 0 results in
  let ops = Array.length q + Array.length a in
  Printf.printf "ops        : %d (%d queries, %d applies, %.0f ops/s)\n" ops
    (Array.length q) (Array.length a)
    (float_of_int ops /. !seconds);
  Printf.printf "query ns   : p50 %d  p99 %d\n" (percentile q 0.50)
    (percentile q 0.99);
  Printf.printf "apply ns   : p50 %d  p99 %d\n" (percentile a 0.50)
    (percentile a 0.99);
  Printf.printf "group commit: %d batches in %d fsyncs (%.2f batches/fsync)\n"
    stats.Server.committed_batches stats.Server.group_commits
    (if stats.Server.group_commits = 0 then 0.
     else
       float_of_int stats.Server.committed_batches
       /. float_of_int stats.Server.group_commits);
  Printf.printf "deltas pushed: %d, sessions served: %d\n"
    stats.Server.deltas_pushed stats.Server.accepted;
  let stage_mean stage =
    let h =
      Metrics.histogram ~labels:[ ("stage", stage) ] "ivm_serve_stage_ns"
    in
    match Metrics.histogram_count h with
    | 0 -> 0.
    | n -> float_of_int (Metrics.histogram_sum h) /. float_of_int n
  in
  let bench_stages =
    Reqtrace.apply_stages
    @ [ "publish.rotate_wait"; "publish.patch"; "publish.live_drain" ]
  in
  if Reqtrace.enabled () then begin
    Printf.printf
      "server stage ns (apply path; mean exact, percentiles log2 bucket \
       upper bounds):\n";
    List.iter
      (fun stage ->
        let h =
          Metrics.histogram ~labels:[ ("stage", stage) ] "ivm_serve_stage_ns"
        in
        let n = Metrics.histogram_count h in
        if n > 0 then
          Printf.printf
            "  %-20s mean %9.0f  p50 %9d  p90 %9d  p99 %9d  (n=%d)\n" stage
            (stage_mean stage)
            (Metrics.percentile h 0.50)
            (Metrics.percentile h 0.90)
            (Metrics.percentile h 0.99)
            n)
      bench_stages
  end
  else Printf.printf "server stage ns: tracing disabled (IVM_REQTRACE=0)\n";
  Printf.printf
    "publish     : %d total, %d incremental, %d full copies (%d from stalled \
     readers)\n"
    pub_stats.Snap_pub.publishes pub_stats.Snap_pub.incremental
    pub_stats.Snap_pub.full_copies pub_stats.Snap_pub.full_stalled;
  (* the decomposition's headline ratio: how much of the apply path's
     mean server-side time the publish stage takes (what the incremental
     publisher is meant to shrink) — exact means, the same definition as
     perfbench's layer shares *)
  let stage_sum_mean =
    List.fold_left (fun acc s -> acc +. stage_mean s) 0. Reqtrace.apply_stages
  in
  let publish_share =
    if stage_sum_mean = 0. then 0. else stage_mean "publish" /. stage_sum_mean
  in
  Printf.printf "publish share of apply stages (mean): %.3f\n" publish_share;
  Printf.printf "protocol errors: %d\n" (errors + stats.Server.protocol_errors);
  (* the audit closes the loop: concurrent group commits kept views exact *)
  let audit_ok =
    match Vm.audit vm with
    | Ok () ->
      Printf.printf "audit: ok, views match recomputation\n";
      true
    | Error msg ->
      Printf.printf "audit: MISMATCH %s\n" msg;
      false
  in
  (if !json_out <> "" then
     let doc =
       Json.Obj
         [
           ("clients", Json.int !clients);
           ("seconds", Json.Num !seconds);
           ("readers", Json.int !readers);
           ("batch", Json.int !batch);
           ("full_publish", Json.Bool !full_publish);
           ("hold_snapshot_ms", Json.int !hold_ms);
           ("ops", Json.int ops);
           ("ops_per_s", Json.Num (float_of_int ops /. !seconds));
           ("query_p50_ns", Json.int (percentile q 0.50));
           ("query_p99_ns", Json.int (percentile q 0.99));
           ("apply_p50_ns", Json.int (percentile a 0.50));
           ("apply_p99_ns", Json.int (percentile a 0.99));
           ( "stage_mean_ns",
             Json.Obj
               (List.filter_map
                  (fun s ->
                    let m = stage_mean s in
                    if m = 0. then None else Some (s, Json.Num m))
                  bench_stages) );
           ("publish_mean_share_of_apply", Json.Num publish_share);
           ( "publish",
             Json.Obj
               [
                 ("publishes", Json.int pub_stats.Snap_pub.publishes);
                 ("incremental", Json.int pub_stats.Snap_pub.incremental);
                 ("full_copies", Json.int pub_stats.Snap_pub.full_copies);
                 ("full_stalled", Json.int pub_stats.Snap_pub.full_stalled);
               ] );
           ( "batches_per_fsync",
             Json.Num
               (if stats.Server.group_commits = 0 then 0.
                else
                  float_of_int stats.Server.committed_batches
                  /. float_of_int stats.Server.group_commits) );
           ("errors", Json.int (errors + stats.Server.protocol_errors));
         ]
     in
     Out_channel.with_open_text !json_out (fun oc ->
         output_string oc (Json.to_string doc);
         output_char oc '\n'));
  let gate_ok =
    if !gate = "" then true
    else begin
      (* regression gate against a committed baseline: the publish stage
         must stay a comparable *share* of the apply decomposition (a
         ratio, so machine speed cancels out), and the run must be
         error-free.  Slack: 2x the baseline share + 0.05 absolute. *)
      let base = Json.of_string (In_channel.with_open_text !gate In_channel.input_all) in
      let base_share =
        match
          Option.bind (Json.member "publish_mean_share_of_apply" base)
            Json.to_float_opt
        with
        | Some f -> f
        | None ->
          Printf.eprintf "gate: %s lacks publish_mean_share_of_apply\n" !gate;
          exit 2
      in
      let ceiling = (2. *. base_share) +. 0.05 in
      let ok = publish_share <= ceiling in
      Printf.printf "gate: publish share %.3f vs baseline %.3f (ceiling %.3f): %s\n"
        publish_share base_share ceiling
        (if ok then "ok" else "REGRESSION");
      ok
    end
  in
  if (not audit_ok) || (not gate_ok) || errors + stats.Server.protocol_errors > 0
  then exit 1
