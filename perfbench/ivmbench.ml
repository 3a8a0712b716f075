(* The benchmark's OCaml half; perfbench/run.py drives it.

     ivmbench program --workload W --seed N --out FILE
         write the generated Datalog program the server is started on
     ivmbench load --workload W --seed N --port P --answers FILE
         the out-of-process load generator: play the warm-up untimed,
         then the fixed op list over one connection (a closed loop) with
         a calibration slice before every 8th op, then the verification
         queries; print client-observed latencies and slice times as JSON
     ivmbench recover --workload W --seed N --dir D --answers FILE
         time View_manager.open_durable on a stopped server's store, then
         run the correctness gate on the recovered state
     ivmbench replay --workload W --seed N --dir D --spans FILE
         the traced replay: the same op list in-process, one call at a
         time through each layer's public functions; print per-layer
         metrics as JSON and write the spans to FILE
     ivmbench calib
         time one calibration window (see [calib_slice])
     ivmbench info
         print the OCaml version *)

module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Relation = Ivm_relation.Relation
module Tuple = Ivm_relation.Tuple
module Query = Ivm_eval.Query
module Stats = Ivm_eval.Stats
module Store = Ivm_store.Store
module Client = Ivm_serve.Client
module Protocol = Ivm_serve.Protocol
module Snap_pub = Ivm_serve.Snap_pub
module Frame = Ivm_wire.Frame
module Crc32 = Ivm_wire.Crc32
module Json = Ivm_obs.Json
module Graph_gen = Ivm_workload.Graph_gen
module Trace = Ivm_obs.Trace

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ivmbench: " ^ s); exit 2) fmt

let args = Array.to_list Sys.argv |> List.tl

let opt key =
  let rec go = function
    | k :: v :: _ when k = "--" ^ key -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (List.tl args)

let req key = match opt key with Some v -> v | None -> die "missing --%s" key

let int_arg key =
  match int_of_string_opt (req key) with Some n -> n | None -> die "--%s wants an integer" key

let workload () =
  let name = req "workload" in
  match Workload.find name with
  | Some spec -> Workload.generate spec ~seed:(int_arg "seed")
  | None -> die "unknown workload %s" name

let print_json fields = print_endline (Json.to_string (Json.Obj fields))
let ints l = Json.List (List.map Json.int l)
let now = Unix.gettimeofday
let ns dt = int_of_float (dt *. 1e9)

(* --------------------------------------------------------- calibration *)

(* The calibration slice: a fixed piece of CPU work that calls nothing
   from lib/ (hashing, allocation, sorting, like the server's own work),
   timed.  It takes about 0.75 ms on the 2-core reference host, more
   while the host is slow, and no change to the system under test can
   move it.  perfbench/run.py divides each timing by the mean slice time
   measured around it.  The slice allocates, so it is only timed in
   processes with a small heap: in one with a large heap it would also
   time that heap's garbage collection. *)
let calib_table = Hashtbl.create 4096

let calib_slice () =
  let t0 = now () in
  Hashtbl.reset calib_table;
  let x = ref 12345 in
  for i = 0 to 2_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    Hashtbl.replace calib_table (!x land 0xFFFF) [ i; !x ]
  done;
  let a = Array.init 2_000 (fun i -> (i * 7919) land 0xFFFFF) in
  Array.sort compare a;
  ignore (Sys.opaque_identity a);
  now () -. t0

let calib_slices n = List.init n (fun _ -> calib_slice ())

(* Slices in a calibration window, timed before and after the server's
   set-up and a recovery: about 0.3 s on the reference host.  The host's
   speed changes about once a second, so a window must be about as long
   as the phase it calibrates: 20-slice windows around a recovery made
   its scaled times noisier than the raw ones. *)
let calib_window = 400
let floats l = Json.List (List.map (fun x -> Json.Num x) l)

(* ---------------------------------------------------------------- load *)

(* the load generator times one calibration slice before every
   [calib_every]-th op *)
let calib_every = 8

type played = {
  apply_ns : int list;
  query_ns : int list;
  calib_s : float list;
  failed : int;
  busy_s : float;  (** wall time spent in ops, slices excluded *)
}

(* One closed loop: send an op, wait for its reply, send the next.  A
   refused op counts as failed; a dead connection fails every op left. *)
let play ?(calib = false) client ops =
  let apply_ns = ref [] and query_ns = ref [] and calib_s = ref [] and failed = ref 0 in
  let start = now () in
  let rec go i = function
    | [] -> ()
    | op :: rest -> (
      if calib && i mod calib_every = 0 then calib_s := calib_slice () :: !calib_s;
      match
        match op with
        | Workload.Apply { deletes; inserts } ->
          let ch = Workload.changes ~deletes ~inserts in
          let t0 = now () in
          ignore (Client.apply client ch);
          apply_ns := ns (now () -. t0) :: !apply_ns
        | Workload.Query body ->
          let t0 = now () in
          ignore (Client.query client body);
          query_ns := ns (now () -. t0) :: !query_ns
      with
      | () -> go (i + 1) rest
      | exception (Client.Server_error _ | Client.Unexpected _) ->
        incr failed;
        go (i + 1) rest
      | exception e ->
        Printf.eprintf "ivmbench: connection lost: %s\n%!" (Printexc.to_string e);
        failed := !failed + 1 + List.length rest)
  in
  go 0 ops;
  let calib_s = List.rev !calib_s in
  { apply_ns = !apply_ns; query_ns = !query_ns; calib_s; failed = !failed;
    busy_s = now () -. start -. List.fold_left ( +. ) 0. calib_s }

let load () =
  let w = workload () in
  let client = Client.connect ~port:(int_arg "port") () in
  let warm_ops = List.filteri (fun i _ -> i < Workload.warmup) w.ops
  and ops = List.filteri (fun i _ -> i >= Workload.warmup) w.ops in
  let warm = play client warm_ops in
  let r = play ~calib:true client ops in
  (* the verification queries, answered by the server's final snapshot *)
  Out_channel.with_open_text (req "answers") (fun oc ->
      List.iter
        (fun q ->
          let ans =
            match Client.query client q with
            | _, rows -> Workload.canonical rows
            | exception e -> "ERROR " ^ Printexc.to_string e
          in
          Printf.fprintf oc "%s\t%s\n" q ans)
        w.verify);
  Client.close client;
  print_json
    [
      ("busy_s", Json.Num r.busy_s);
      ("timed", Json.int (List.length ops));
      ("timed_failed", Json.int r.failed);
      ("attempted", Json.int (List.length w.ops));
      ("failed", Json.int (warm.failed + r.failed));
      ("apply_ns", ints r.apply_ns);
      ("query_ns", ints r.query_ns);
      ("warmup_apply_ns", ints warm.apply_ns);
      ("calib_s", floats r.calib_s);
    ]

(* ------------------------------------------------------------- recover *)

(* The correctness gate on a recovered store: the views pass the audit
   (incremental state = recomputation), [link] is exactly the generator's
   model (every acknowledged write, nothing else), and the server's
   answers to the verification queries match the recovered database's. *)
let gate (w : Workload.t) vm answers =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match Vm.audit vm with Ok () -> () | Error m -> fail "audit: %s" m);
  let model =
    Relation.of_list 2 (List.map (fun e -> (Graph_gen.edge_tuple e, 1)) w.final)
  in
  if not (Relation.equal_counted model (Vm.relation vm "link")) then
    fail "link: %d tuples recovered, model has %d"
      (Relation.cardinal (Vm.relation vm "link")) (List.length w.final);
  let served = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.index_opt line '\t' with
      | Some i ->
        Hashtbl.replace served (String.sub line 0 i)
          (String.sub line (i + 1) (String.length line - i - 1))
      | None -> ())
    answers;
  List.iter
    (fun q ->
      let mine = Workload.canonical (Query.run_text (Vm.database vm) q).Query.rows in
      match Hashtbl.find_opt served q with
      | None -> fail "query %s: no server answer" q
      | Some a when a <> mine -> fail "query %s: server answer differs from recovery" q
      | Some _ -> ())
    w.verify;
  List.rev !errors

let recover () =
  let w = workload () in
  let answers = In_channel.with_open_text (req "answers") In_channel.input_lines in
  Gc.full_major ();
  let t0 = now () in
  let vm, _ = Vm.open_durable (req "dir") in
  let recovery_s = now () -. t0 in
  let errors = gate w vm answers in
  Vm.close_store vm;
  print_json
    [
      ("recovery_s", Json.Num recovery_s);
      ("errors", Json.List (List.map (fun e -> Json.Str e) errors));
    ]

(* -------------------------------------------------------------- replay *)

(* Frame.read_fd's work on an in-memory frame: header, CRC, payload. *)
let unframe s =
  let payload = String.sub s 8 (String.length s - 8) in
  if Crc32.digest payload <> String.get_int32_le s 4 then failwith "frame CRC";
  payload

type span_stat = { n : int; total_s : float; self_s : float }

(* Per-name count, total time and self time of the recorded spans: the
   benchmark's spans around each call and the library's own spans inside
   them.  Spans nest by timestamp containment within a domain (the stage
   spans reported after the fact carry no depth); a span's self time is
   its duration minus that of its direct children. *)
let span_summary (events : Trace.event list) =
  let spans =
    List.sort
      (fun (a : Trace.event) (b : Trace.event) ->
        compare (a.tid, a.ts_us, -.a.dur_us) (b.tid, b.ts_us, -.b.dur_us))
      (List.filter (fun (e : Trace.event) -> e.kind = Trace.Span) events)
  in
  let by_name = Hashtbl.create 32 in
  let close ((e : Trace.event), child_us) =
    let prev =
      Option.value ~default:{ n = 0; total_s = 0.; self_s = 0. }
        (Hashtbl.find_opt by_name e.name)
    in
    Hashtbl.replace by_name e.name
      {
        n = prev.n + 1;
        total_s = prev.total_s +. (e.dur_us /. 1e6);
        self_s = prev.self_s +. ((e.dur_us -. child_us) /. 1e6);
      }
  in
  let ends (e : Trace.event) = e.ts_us +. e.dur_us in
  (* the open spans, innermost first, each with its children's time *)
  let stack = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      let rec pop () =
        match !stack with
        | ((p : Trace.event), _) :: rest when p.tid <> e.tid || ends p < ends e ->
          close (List.hd !stack);
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (p, child_us) :: rest -> stack := (p, child_us +. e.dur_us) :: rest
      | [] -> ());
      stack := (e, 0.) :: !stack)
    spans;
  List.iter close !stack;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

type acc = { mutable n : int; mutable sum : float }

let replay () =
  let w = workload () in
  let dir = req "dir" in
  let accs = Hashtbl.create 32 in
  let add name v =
    let a =
      match Hashtbl.find_opt accs name with
      | Some a -> a
      | None ->
        let a = { n = 0; sum = 0. } in
        Hashtbl.replace accs name a;
        a
    in
    a.n <- a.n + 1;
    a.sum <- a.sum +. v
  in
  let get name = Option.value ~default:{ n = 0; sum = 0. } (Hashtbl.find_opt accs name) in
  let timed name f =
    let t0 = now () in
    let r = Trace.span ~cat:"bench" name f in
    add name (now () -. t0);
    r
  in
  (* wire: encode a message into its frame, decode it back *)
  let wire kind encode decode msg =
    let framed = timed "wire.encode" (fun () -> Frame.encode (encode msg)) in
    add ("wire." ^ kind ^ "_bytes") (float (String.length framed));
    timed "wire.decode" (fun () -> decode (unframe framed))
  in
  Trace.enable_file ~capacity:(1 lsl 20) (req "spans");
  Stats.reset ();
  let vm = timed "eval.materialize" (fun () -> Vm.of_source (Workload.program_source w)) in
  timed "store.snapshot_write" (fun () -> Vm.make_durable vm ~dir);
  let status () = Option.get (Vm.store_status vm) in
  let snapshot_bytes = (status ()).Store.snapshot_bytes in
  let pub = timed "serve.snap_pub_create" (fun () -> Snap_pub.create ~readers:1 vm) in
  let hooks =
    {
      Vm.batch_stage =
        (fun _ name t0 t1 ->
          Trace.span_at ~cat:"bench" ~ts:t0 ~dur:(t1 -. t0) ("core." ^ name);
          add ("stage." ^ name) (t1 -. t0));
      group_stage =
        (fun name t0 t1 ->
          Trace.span_at ~cat:"bench" ~ts:t0 ~dur:(t1 -. t0) ("store." ^ name);
          add ("stage." ^ name) (t1 -. t0));
    }
  in
  let run_op = function
    | Workload.Apply { deletes; inserts } ->
      let ch =
        match
          wire "apply_request" Protocol.encode_request Protocol.decode_request
            (Protocol.Apply { changes = Workload.changes ~deletes ~inserts; trace = "" })
        with
        | Protocol.Apply { changes; _ } -> changes
        | _ -> failwith "decoded request is not an apply"
      in
      let wal0 = (status ()).Store.wal_bytes in
      let minor0 = Gc.minor_words () in
      let work0 = Stats.snapshot () in
      let track = Changes.collector () in
      let deltas =
        match timed "core.apply_group" (fun () -> Vm.apply_group ~hooks ~track vm [ ch ]) with
        | [ Ok deltas ] -> deltas
        | [ Error m ] -> failwith ("apply refused: " ^ m)
        | _ -> failwith "apply_group: one result per batch expected"
      in
      let work = Stats.since work0 in
      add "eval.derivations" (float work.Stats.snap_derivations);
      add "eval.probes" (float work.Stats.snap_probes);
      add "eval.tuples_scanned" (float work.Stats.snap_tuples_scanned);
      add "core.minor_words" (Gc.minor_words () -. minor0);
      add "store.wal_bytes" (float ((status ()).Store.wal_bytes - wal0));
      ignore (timed "serve.publish" (fun () -> Snap_pub.publish ~track pub));
      add "serve.patched_tuples" (float (Changes.total_tuples (Changes.collected track)));
      ignore
        (wire "apply_reply" Protocol.encode_response Protocol.decode_response
           (Protocol.Applied { seq = (status ()).Store.seq; deltas; timings = [] }))
    | Workload.Query body ->
      ignore
        (wire "query_request" Protocol.encode_request Protocol.decode_request
           (Protocol.Query { body; trace = "" }));
      let builds0 = Stats.index_builds () in
      let r =
        timed "eval.query" (fun () ->
            let db = Snap_pub.acquire pub ~reader:0 in
            Fun.protect
              ~finally:(fun () -> Snap_pub.release pub ~reader:0)
              (fun () -> Query.run_text db body))
      in
      add "eval.index_builds" (float (Stats.index_builds () - builds0));
      add "eval.query_rows" (float (Relation.cardinal r.Query.rows));
      ignore
        (wire "query_reply" Protocol.encode_response Protocol.decode_response
           (Protocol.Answer { columns = r.Query.columns; rows = r.Query.rows }))
  in
  List.iter run_op w.ops;
  add "serve.publish_full_copies" (float (Snap_pub.stats pub).Snap_pub.full_copies);
  add "store.snapshot_bytes" (float snapshot_bytes);
  Vm.close_store vm;
  timed "store.open" (fun () ->
      let _db, store, _ = Store.open_ ~dir in
      Store.close store);
  let recovered, _ = timed "core.open_durable" (fun () -> Vm.open_durable dir) in
  Vm.close_store recovered;
  let events = Trace.ring_events () in
  if Trace.dropped () > 0 then die "trace ring overflowed: %d spans lost" (Trace.dropped ());
  ignore (Trace.disable ());
  (* each metric as [value, samples] *)
  let metric scale f key = Json.List [ Json.Num (scale *. f (get key)); Json.int (get key).n ] in
  let mean a = if a.n = 0 then 0. else a.sum /. float a.n in
  let total a = a.sum in
  let m_us name key = (name, metric 1e6 mean key) in
  let m_mean name key = (name, metric 1. mean key) in
  let m_total name key = (name, metric 1. total key) in
  let replay_s = (get "core.open_durable").sum -. (get "store.open").sum in
  print_json
    [
      ( "metrics",
        Json.Obj
          [
            m_us "core.maintain_us" "stage.maintain";
            m_us "core.normalize_us" "stage.normalize";
            m_mean "core.minor_words_per_batch" "core.minor_words";
            ("core.replay_s", Json.List [ Json.Num replay_s; Json.int 1 ]);
            m_mean "eval.derivations_per_batch" "eval.derivations";
            m_mean "eval.probes_per_batch" "eval.probes";
            m_mean "eval.tuples_scanned_per_batch" "eval.tuples_scanned";
            m_us "eval.query_us" "eval.query";
            m_mean "eval.query_rows" "eval.query_rows";
            m_total "eval.index_builds" "eval.index_builds";
            m_total "eval.materialize_s" "eval.materialize";
            m_total "store.snapshot_write_s" "store.snapshot_write";
            m_total "store.snapshot_bytes" "store.snapshot_bytes";
            m_us "store.wal_append_us" "stage.wal_append";
            m_us "store.fsync_us" "stage.fsync";
            m_mean "store.wal_bytes_per_batch" "store.wal_bytes";
            m_total "store.open_s" "store.open";
            m_us "serve.publish_us" "serve.publish";
            m_mean "serve.patched_tuples_per_group" "serve.patched_tuples";
            m_total "serve.publish_full_copies" "serve.publish_full_copies";
            m_mean "wire.apply_request_bytes" "wire.apply_request_bytes";
            m_mean "wire.apply_reply_bytes" "wire.apply_reply_bytes";
            m_mean "wire.query_request_bytes" "wire.query_request_bytes";
            m_mean "wire.query_reply_bytes" "wire.query_reply_bytes";
            m_us "wire.encode_us" "wire.encode";
            m_us "wire.decode_us" "wire.decode";
          ] );
      ( "spans",
        Json.Obj
          (List.map
             (fun (name, (s : span_stat)) ->
               ( name,
                 Json.Obj
                   [
                     ("n", Json.int s.n);
                     ("total_s", Json.Num s.total_s);
                     ("self_s", Json.Num s.self_s);
                   ] ))
             (span_summary events)) );
    ]

(* ---------------------------------------------------------------- calib *)

let calib () = print_json [ ("calib_s", floats (calib_slices calib_window)) ]

let () =
  match args with
  | "program" :: _ ->
    let w = workload () in
    let src = Workload.program_source w in
    Out_channel.with_open_text (req "out") (fun oc -> output_string oc src);
    print_json [ ("bytes", Json.int (String.length src)) ]
  | "load" :: _ -> load ()
  | "recover" :: _ -> recover ()
  | "replay" :: _ -> replay ()
  | "calib" :: _ -> calib ()
  | "info" :: _ -> print_json [ ("ocaml", Json.Str Sys.ocaml_version) ]
  | _ -> die "usage: ivmbench (program|load|recover|replay|calib|info) [--key value ...]"
