(** The view server: protocol codec round-trips (QCheck), frame
    hardening, group commit ({!Ivm.View_manager.apply_group}), and
    live-socket behaviour — snapshot-consistent concurrent readers,
    subscriber fan-out, misbehaving-client isolation, and durability of
    every acknowledged batch across a reopen. *)

module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Relation = Ivm_relation.Relation
module Tuple = Ivm_relation.Tuple
module Value = Ivm_relation.Value
module Wire = Ivm_wire.Wire
module Frame = Ivm_wire.Frame
module Protocol = Ivm_serve.Protocol
module Server = Ivm_serve.Server
module Snap_pub = Ivm_serve.Snap_pub
module Client = Ivm_serve.Client
module Metrics = Ivm_obs.Metrics
module Reqtrace = Ivm_obs.Reqtrace
module Monitor = Ivm_monitor.Monitor

let quick name f = Alcotest.test_case name `Quick f

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

(* ---------------- generators ---------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map Value.int (int_range (-1000) 1000);
        map Value.str (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
        map Value.bool bool;
        map (fun i -> Value.float (float_of_int i /. 8.)) (int_range (-80) 80);
      ])

let relation_gen ~arity =
  QCheck.Gen.(
    let tuple = map Tuple.of_list (list_size (return arity) value_gen) in
    let entry =
      map2 (fun t c -> (t, if c = 0 then 1 else c)) tuple (int_range (-3) 3)
    in
    map (Relation.of_list arity) (list_size (int_range 0 8) entry))

let changes_gen =
  QCheck.Gen.(
    list_size (int_range 0 3)
      (map2
         (fun name rel -> (name, rel))
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 5))
         (relation_gen ~arity:2)))

let token_gen = QCheck.Gen.(string_size ~gen:printable (int_range 0 12))

(* empty half the time: absence on the wire must round-trip too *)
let trace_gen =
  QCheck.Gen.(
    oneof
      [ return ""; string_size ~gen:(char_range 'a' 'z') (int_range 1 10) ])

let timings_gen =
  QCheck.Gen.(
    list_size (int_range 0 5)
      (map2
         (fun stage ns -> (stage, ns))
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 10))
         (int_range 0 1_000_000_000)))

let request_gen : Protocol.request QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun version token -> Protocol.Hello { version; token })
          (int_range 0 5) token_gen;
        return Protocol.Ping;
        map2 (fun body trace -> Protocol.Query { body; trace }) token_gen
          trace_gen;
        map2
          (fun changes trace -> Protocol.Apply { changes; trace })
          changes_gen trace_gen;
        map (fun s -> Protocol.Subscribe s) token_gen;
        return Protocol.Status;
        return Protocol.Close;
      ])

let error_code_gen =
  QCheck.Gen.oneofl
    Protocol.
      [
        Bad_version; Auth_failed; Bad_request; Query_failed; Invalid_changes;
        Quota_exceeded; Shutting_down; Internal;
      ]

let response_gen : Protocol.response QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun version seq -> Protocol.Hello_ok { version; seq })
          (int_range 0 5) (int_range 0 1_000_000);
        return Protocol.Pong;
        map2
          (fun columns rows -> Protocol.Answer { columns; rows })
          (list_size (int_range 0 3) token_gen)
          (relation_gen ~arity:2);
        map3
          (fun seq deltas timings -> Protocol.Applied { seq; deltas; timings })
          (int_range 0 1_000_000) changes_gen timings_gen;
        map (fun s -> Protocol.Sub_ok s) token_gen;
        map (fun s -> Protocol.Status_reply s) token_gen;
        return Protocol.Bye;
        map3
          (fun seq pred delta -> Protocol.Delta { seq; pred; delta })
          (int_range 0 1_000_000) token_gen (relation_gen ~arity:1);
        map2
          (fun code message -> Protocol.Error { code; message })
          error_code_gen token_gen;
      ])

(* ---------------- semantic equality ---------------- *)

let eq_changes (a : Protocol.changes) (b : Protocol.changes) =
  List.length a = List.length b
  && List.for_all2
       (fun (p, r) (p', r') -> p = p' && Relation.equal_counted r r')
       a b

let eq_request (a : Protocol.request) (b : Protocol.request) =
  match (a, b) with
  | Protocol.Apply x, Protocol.Apply y ->
    eq_changes x.changes y.changes && x.trace = y.trace
  | _ -> a = b

let eq_response (a : Protocol.response) (b : Protocol.response) =
  match (a, b) with
  | Protocol.Answer x, Protocol.Answer y ->
    x.columns = y.columns && Relation.equal_counted x.rows y.rows
  | Protocol.Applied x, Protocol.Applied y ->
    x.seq = y.seq && eq_changes x.deltas y.deltas && x.timings = y.timings
  | Protocol.Delta x, Protocol.Delta y ->
    x.seq = y.seq && x.pred = y.pred && Relation.equal_counted x.delta y.delta
  | _ -> a = b

(* ---------------- codec properties ---------------- *)

let request_arb =
  QCheck.make request_gen ~print:(fun r ->
      Printf.sprintf "request opcode 0x%02x" (Protocol.opcode_of_request r))

let response_arb =
  QCheck.make response_gen ~print:(fun r ->
      Printf.sprintf "response opcode 0x%02x" (Protocol.opcode_of_response r))

let request_roundtrip =
  q "codec: requests round-trip" request_arb (fun req ->
      eq_request req (Protocol.decode_request (Protocol.encode_request req)))

let response_roundtrip =
  q "codec: responses round-trip" response_arb (fun resp ->
      eq_response resp (Protocol.decode_response (Protocol.encode_response resp)))

let answer_size_exact =
  q "codec: answer_size is the encoded answer's length"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 0 3) token_gen) (relation_gen ~arity:2)))
    (fun (columns, rows) ->
      Protocol.answer_size ~columns rows
      = String.length (Protocol.encode_response (Protocol.Answer { columns; rows })))

let frame_roundtrip =
  q "codec: framed messages survive the fd layer" request_arb (fun req ->
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ())
        (fun () ->
          Frame.send w (Protocol.request_frame req);
          eq_request req (Protocol.decode_request (Frame.read_fd r))))

(* ---------------- trace context: v1 wire compatibility ---------------- *)

(* The trace context is a trailing optional field: its absence must be
   byte-identical to a pre-trace v1 frame, and a v1 frame (no trailing
   field) must decode with [trace = ""].  Same deal for the [Applied]
   timings. *)
let trace_context_wire_compat () =
  let wire_string s =
    let len = Bytes.create 4 in
    Bytes.set_int32_le len 0 (Int32.of_int (String.length s));
    Bytes.to_string len ^ s
  in
  (* hand-built v1 query frame: opcode byte + body, nothing after *)
  let legacy_query =
    String.make 1
      (Char.chr (Protocol.opcode_of_request (Protocol.Query { body = ""; trace = "" })))
    ^ wire_string "p(X)"
  in
  (match Protocol.decode_request legacy_query with
  | Protocol.Query { body = "p(X)"; trace = "" } -> ()
  | _ -> Alcotest.fail "v1 query frame did not decode to trace = \"\"");
  Alcotest.(check string) "empty trace encodes as the v1 bytes" legacy_query
    (Protocol.encode_request (Protocol.Query { body = "p(X)"; trace = "" }));
  (* a traced frame is exactly the v1 frame plus the trailing field *)
  let changes =
    [ ("p", Relation.of_list 1 [ (Tuple.of_list [ Value.str "x" ], 1) ]) ]
  in
  let untraced =
    Protocol.encode_request (Protocol.Apply { changes; trace = "" })
  in
  Alcotest.(check string) "trace context is a trailing field"
    (untraced ^ wire_string "t7")
    (Protocol.encode_request (Protocol.Apply { changes; trace = "t7" }));
  (match Protocol.decode_request untraced with
  | Protocol.Apply { trace = ""; _ } -> ()
  | _ -> Alcotest.fail "v1 apply frame did not decode to trace = \"\"");
  (* Applied timings: absent for v1 clients, trailing when present *)
  let plain =
    Protocol.encode_response
      (Protocol.Applied { seq = 7; deltas = changes; timings = [] })
  in
  let timed =
    Protocol.encode_response
      (Protocol.Applied
         { seq = 7; deltas = changes; timings = [ ("fsync", 123) ] })
  in
  Alcotest.(check bool) "timings only lengthen the frame when present" true
    (String.length plain < String.length timed
    && String.sub timed 0 (String.length plain) = plain);
  match Protocol.decode_response plain with
  | Protocol.Applied { timings = []; _ } -> ()
  | _ -> Alcotest.fail "v1 applied frame did not decode to timings = []"

let trailing_bytes_rejected () =
  let payload = Protocol.encode_request Protocol.Ping ^ "x" in
  match Protocol.decode_request payload with
  | _ -> Alcotest.fail "trailing byte accepted"
  | exception Wire.Corrupt _ -> ()

let corrupt_frame_rejected () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let frame = Bytes.of_string (Frame.encode (Protocol.encode_request Protocol.Ping)) in
      let last = Bytes.length frame - 1 in
      Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 0x01));
      ignore (Unix.write w frame 0 (Bytes.length frame));
      match Frame.read_fd r with
      | _ -> Alcotest.fail "bit flip not detected"
      | exception Wire.Corrupt _ -> ())

let truncated_frame_is_closed () =
  let r, w = Unix.pipe () in
  (try
     let frame = Frame.encode (Protocol.encode_request Protocol.Status) in
     ignore (Unix.write_substring w frame 0 (String.length frame - 2));
     Unix.close w
   with e ->
     Unix.close r;
     raise e);
  Fun.protect
    ~finally:(fun () -> try Unix.close r with Unix.Unix_error _ -> ())
    (fun () ->
      match Frame.read_fd r with
      | _ -> Alcotest.fail "truncated frame accepted"
      | exception Frame.Closed -> ())

(* A hostile or broken peer controls the 8 header bytes and how much
   payload arrives.  Whatever it sends, [read_fd] ends in [Corrupt] or
   [Closed] (or a verified payload, when the header was honest) and
   allocates at most the capped declared length plus a constant. *)
let hostile_frames_fail_bounded =
  let cap = 64 * 1024 in
  let gen =
    QCheck.Gen.(
      let declared =
        oneof
          [
            int_range 0 4096;
            int_range (cap - 8) (cap + 8);
            int_range (cap + 1) 0xFFFFFFFF;
            return 0xFFFFFFFF;
          ]
      in
      declared >>= fun len ->
      int_range 0 (min len 4096) >>= fun sent ->
      int_range 0 8 >>= fun hdr ->
      bool >>= fun honest_crc ->
      string_size ~gen:char (return sent) >>= fun body ->
      return (len, hdr, honest_crc, body))
  in
  let print (len, hdr, honest, body) =
    Printf.sprintf "declared=%d header_bytes=%d honest_crc=%b sent=%d" len hdr
      honest (String.length body)
  in
  let read (len, hdr, honest_crc, body) =
    let frame = Bytes.create (8 + String.length body) in
    Bytes.set_int32_le frame 0 (Int32.of_int len);
    let crc = Ivm_wire.Crc32.digest body in
    Bytes.set_int32_le frame 4 (if honest_crc then crc else Int32.lognot crc);
    Bytes.blit_string body 0 frame 8 (String.length body);
    (* a header cut short sends nothing after it *)
    let n = if hdr < 8 then hdr else Bytes.length frame in
    let r, w = Unix.pipe () in
    ignore (Unix.write w frame 0 n);
    Unix.close w;
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () ->
        Util.allocated_words (fun () ->
            match Frame.read_fd ~max_payload:cap r with
            | p -> `Payload p
            | exception Frame.Closed -> `Closed
            | exception Wire.Corrupt _ -> `Corrupt))
  in
  q ~count:300 "frame: hostile headers and truncation fail, bounded"
    (QCheck.make ~print gen) (fun ((len, hdr, honest_crc, body) as case) ->
      let outcome, words = read case in
      let expected =
        if hdr < 8 then `Closed
        else if len > cap then `Corrupt
        else if String.length body < len then `Closed
        else if honest_crc then `Payload body
        else `Corrupt
      in
      let budget = float_of_int ((min len cap / 8) + 512) in
      if outcome <> expected then QCheck.Test.fail_report "unexpected outcome";
      if words > budget then
        QCheck.Test.fail_reportf "allocated %.0f words (budget %.0f)" words budget;
      true)

(* ---------------- group commit ---------------- *)

let fsyncs_counter = Metrics.counter "ivm_store_wal_fsyncs_total"

let link a b =
  Tuple.of_list [ Value.str a; Value.str b ]

let hop_src = "hop(X, Y) :- link(X, Z), link(Z, Y).\nlink(a, b). link(b, c).\n"

let group_commit_single_fsync () =
  let dir = tmpdir "ivm_serve_group" in
  let vm = Vm.of_source ~durable:dir hop_src in
  let p = Vm.program vm in
  let batch a b = Changes.of_list p [ ("link", [ (link a b, 1) ]) ] in
  let before = Metrics.counter_value fsyncs_counter in
  let results = Vm.apply_group vm [ batch "c" "d"; batch "d" "e"; batch "e" "f" ] in
  Alcotest.(check int) "one fsync for three batches" 1
    (Metrics.counter_value fsyncs_counter - before);
  Alcotest.(check int) "three results" 3 (List.length results);
  List.iter
    (fun r -> Alcotest.(check bool) "batch ok" true (Result.is_ok r))
    results;
  let st = Option.get (Vm.store_status vm) in
  Alcotest.(check int) "store advanced one seq per batch" 3
    st.Ivm_store.Store.seq;
  Alcotest.(check bool) "audit ok" true (Vm.audit vm = Ok ());
  Vm.close_store vm

let group_commit_isolates_bad_batch () =
  let dir = tmpdir "ivm_serve_groupbad" in
  let vm = Vm.of_source ~durable:dir hop_src in
  let p = Vm.program vm in
  let good a b = Changes.of_list p [ ("link", [ (link a b, 1) ]) ] in
  (* deleting an absent tuple violates the standing assumption — the
     batch must be rejected without poisoning its neighbours *)
  let bad = [ ("link", Relation.of_list 2 [ (link "no" "where", -1) ]) ] in
  let results = Vm.apply_group vm [ good "c" "d"; bad; good "d" "e" ] in
  (match results with
  | [ Ok _; Error _; Ok _ ] -> ()
  | _ -> Alcotest.fail "expected [Ok; Error; Ok]");
  let st = Option.get (Vm.store_status vm) in
  Alcotest.(check int) "only the two good batches were logged" 2
    st.Ivm_store.Store.seq;
  Alcotest.(check bool) "audit ok" true (Vm.audit vm = Ok ());
  (* the rejected batch must also be invisible after recovery *)
  Vm.close_store vm;
  let vm2, _recovery = Vm.open_durable dir in
  Alcotest.(check bool) "recovered audit ok" true (Vm.audit vm2 = Ok ());
  Alcotest.(check bool) "good deltas present" true
    (Relation.mem (Vm.relation vm2 "link") (link "d" "e"));
  Vm.close_store vm2

(* ---------------- live server ---------------- *)

let with_server ?config ?durable src f =
  let vm = Vm.of_source ?durable src in
  let srv = Server.start ?config ~vm ~port:0 () in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv vm)

let ab_src = "both(X) :- a(X), b(X).\n"

let sym i = Value.str (Printf.sprintf "v%d" i)

let pair_batch i : Protocol.changes =
  [
    ("a", Relation.of_list 1 [ (Tuple.of_list [ sym i ], 1) ]);
    ("b", Relation.of_list 1 [ (Tuple.of_list [ sym i ], 1) ]);
  ]

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
  at 0

let basic_session () =
  with_server hop_src (fun srv _vm ->
      let c = Client.connect ~port:(Server.port srv) () in
      Client.ping c;
      let cols, rows = Client.query c "hop(a, X)" in
      Alcotest.(check (list string)) "columns" [ "X" ] cols;
      Alcotest.(check int) "hop(a,·) has one answer" 1 (Relation.cardinal rows);
      let seq, deltas =
        Client.apply c [ ("link", Relation.of_list 2 [ (link "c" "d", 1) ]) ]
      in
      Alcotest.(check int) "first commit is seq 1" 1 seq;
      Alcotest.(check bool) "hop delta pushed back" true
        (List.mem_assoc "hop" deltas);
      let json = Client.status c in
      Alcotest.(check bool) "status mentions group_commits" true
        (contains json "group_commits");
      Client.close c)

let snapshot_consistency () =
  with_server ab_src (fun srv _vm ->
      let port = Server.port srv in
      let batches = 60 in
      let writer =
        Domain.spawn (fun () ->
            let c = Client.connect ~port () in
            for i = 1 to batches do
              ignore (Client.apply c (pair_batch i))
            done;
            Client.close c)
      in
      (* concurrent readers: a(X) without b(X) must never be observable —
         each pair lands in one atomic batch, and queries run against the
         atomically-published post-commit snapshot *)
      let readers =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                let c = Client.connect ~port () in
                let violations = ref 0 in
                for _ = 1 to 150 do
                  let _cols, rows = Client.query c "a(X), !b(X)" in
                  if not (Relation.is_empty rows) then incr violations
                done;
                Client.close c;
                !violations))
      in
      Domain.join writer;
      let violations = List.fold_left (fun n d -> n + Domain.join d) 0 readers in
      Alcotest.(check int) "no reader ever saw a half-applied pair" 0 violations;
      let c = Client.connect ~port () in
      let _cols, rows = Client.query c "both(X)" in
      Alcotest.(check int) "all pairs visible at the end" batches
        (Relation.cardinal rows);
      Client.close c)

let subscriber_receives_deltas () =
  with_server ab_src (fun srv _vm ->
      let port = Server.port srv in
      let sub = Client.connect ~port () in
      Client.subscribe sub "both";
      let w = Client.connect ~port () in
      let seq, _ = Client.apply w (pair_batch 1) in
      (match Client.next_delta ~timeout:5.0 sub with
      | Some (dseq, pred, delta) ->
        Alcotest.(check string) "delta for the subscribed view" "both" pred;
        Alcotest.(check int) "delta carries the commit seq" seq dseq;
        Alcotest.(check int) "one tuple" 1 (Relation.cardinal delta)
      | None -> Alcotest.fail "no delta within 5s");
      Client.close w;
      Client.close sub)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let dead_subscriber_does_not_wedge_writer () =
  with_server ab_src (fun srv _vm ->
      let port = Server.port srv in
      (* a subscriber that vanishes without a Close *)
      let fd = raw_connect port in
      Frame.send fd
        (Protocol.request_frame
           (Protocol.Hello { version = Protocol.version; token = "" }));
      ignore (Frame.read_fd fd);
      Frame.send fd (Protocol.request_frame (Protocol.Subscribe "both"));
      ignore (Frame.read_fd fd);
      Unix.close fd;
      (* the writer must keep committing and acking for everyone else *)
      let c = Client.connect ~port () in
      for i = 1 to 5 do
        let seq, _ = Client.apply c (pair_batch i) in
        Alcotest.(check int) "acks keep flowing" i seq
      done;
      Client.close c)

let handshake_gatekeeping () =
  let config = { Server.default_config with auth_token = Some "s3cret" } in
  with_server ~config ab_src (fun srv _vm ->
      let port = Server.port srv in
      (match Client.connect ~token:"wrong" ~port () with
      | _ -> Alcotest.fail "bad token accepted"
      | exception Client.Server_error (Protocol.Auth_failed, _) -> ());
      (* wrong protocol version, right token *)
      let fd = raw_connect port in
      Frame.send fd
        (Protocol.request_frame (Protocol.Hello { version = 99; token = "s3cret" }));
      (match Protocol.decode_response (Frame.read_fd fd) with
      | Protocol.Error { code = Protocol.Bad_version; _ } -> ()
      | _ -> Alcotest.fail "version 99 not rejected");
      Unix.close fd;
      (* no handshake at all *)
      let fd = raw_connect port in
      Frame.send fd (Protocol.request_frame Protocol.Ping);
      (match Protocol.decode_response (Frame.read_fd fd) with
      | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "unauthenticated ping not rejected");
      Unix.close fd;
      let c = Client.connect ~token:"s3cret" ~port () in
      Client.ping c;
      Client.close c)

(* Sent before [hello]: an apply whose relation header declares 2^32 - 16
   rows in a 21-byte payload, then a bare header declaring 1 MiB.  Each is
   answered [bad_request] and its session closed; the one reader domain
   survives both and serves the next client. *)
let hostile_frames_before_hello () =
  let config = { Server.default_config with readers = 1 } in
  with_server ~config hop_src (fun srv _vm ->
      let port = Server.port srv in
      let expect_bad_request what fd =
        (match Protocol.decode_response (Frame.read_fd fd) with
        | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
        | _ -> Alcotest.failf "%s: no bad_request" what);
        (match Frame.read_fd fd with
        | _ -> Alcotest.failf "%s: session left open" what
        | exception Frame.Closed -> ()
        | exception Unix.Unix_error _ -> ());
        Unix.close fd
      in
      let fd = raw_connect port in
      Frame.send fd (Frame.encode (Util.hostile_apply_payload 0xFFFFFFF0));
      expect_bad_request "hostile row count" fd;
      let fd = raw_connect port in
      let hdr = Bytes.make 8 '\000' in
      Bytes.set_int32_le hdr 0 (Int32.of_int (1 lsl 20));
      ignore (Unix.write fd hdr 0 8);
      expect_bad_request "1 MiB frame before hello" fd;
      (* once authenticated, frames past the pre-auth cap are read *)
      let c = Client.connect ~port () in
      let padded = String.make (Server.preauth_max_payload + 1) ' ' ^ "hop(a, X)" in
      let _, rows = Client.query c padded in
      Alcotest.(check int) "a > 64 KiB query is served after hello" 1
        (Relation.cardinal rows);
      Client.ping c;
      Client.close c)

let quotas_enforced () =
  let config =
    { Server.default_config with max_sessions = 1; max_batch_tuples = 2 }
  in
  with_server ~config ab_src (fun srv _vm ->
      let port = Server.port srv in
      let c1 = Client.connect ~port () in
      (match Client.connect ~port () with
      | _ -> Alcotest.fail "second session admitted past max_sessions = 1"
      | exception Client.Server_error (Protocol.Quota_exceeded, _) -> ()
      | exception Frame.Closed -> ());
      let big : Protocol.changes =
        [
          ( "a",
            Relation.of_list 1
              (List.init 3 (fun i -> (Tuple.of_list [ sym i ], 1))) );
        ]
      in
      (match Client.apply c1 big with
      | _ -> Alcotest.fail "oversized batch accepted"
      | exception Client.Server_error (Protocol.Quota_exceeded, _) -> ());
      (* the session survives a rejected batch *)
      Client.ping c1;
      (match Client.apply c1 [ ("nosuch", Relation.of_list 1 [ (Tuple.of_list [ sym 1 ], 1) ]) ] with
      | _ -> Alcotest.fail "unknown predicate accepted"
      | exception Client.Server_error (Protocol.Invalid_changes, _) -> ());
      (match Client.query c1 "nosuch(X)" with
      | _ -> Alcotest.fail "query on unknown predicate accepted"
      | exception Client.Server_error (Protocol.Query_failed, _) -> ());
      Client.ping c1;
      Client.close c1)

let acked_batches_survive_reopen () =
  let dir = tmpdir "ivm_serve_reopen" in
  let last_seq = ref 0 in
  with_server ~durable:dir ab_src (fun srv _vm ->
      let c = Client.connect ~port:(Server.port srv) () in
      for i = 1 to 5 do
        let seq, _ = Client.apply c (pair_batch i) in
        last_seq := seq
      done;
      Client.close c);
  (* with_server stopped the server; detach and reopen the store *)
  let vm2, _recovery = Vm.open_durable dir in
  let st = Option.get (Vm.store_status vm2) in
  Alcotest.(check bool) "every acknowledged batch is on disk" true
    (st.Ivm_store.Store.seq >= !last_seq);
  Alcotest.(check int) "all five pairs recovered" 5
    (Relation.cardinal (Vm.relation vm2 "both"));
  Alcotest.(check bool) "recovered audit ok" true (Vm.audit vm2 = Ok ());
  Vm.close_store vm2

(* Tentpole satellite: epoch pinning end-to-end.  A reader holding a
   published snapshot across several group commits keeps reading a
   frozen, consistent database (invariant 13), and the writer is never
   wedged by it — past [publish_max_wait_s] it falls back to a counted
   full copy instead of mutating the pinned buffer. *)
let held_snapshot_stays_consistent () =
  let config =
    { Server.default_config with readers = 1; publish_max_wait_s = 0.01 }
  in
  with_server ~config ab_src (fun srv _vm ->
      let pub = Server.publisher srv in
      let stalled0 = (Snap_pub.stats pub).Snap_pub.full_stalled in
      (* pin the pre-commit snapshot on the only reader cell; the reader
         domain only touches its cell while evaluating a query, so with
         no query in flight the cell is ours to hold *)
      let pinned = Snap_pub.acquire pub ~reader:0 in
      let d0 = Ivm_eval.Database.canonical_digest pinned in
      let c = Client.connect ~port:(Server.port srv) () in
      for i = 1 to 3 do
        ignore (Client.apply c (pair_batch i))
      done;
      (* three group commits later: the pinned snapshot froze *)
      Alcotest.(check string) "pinned snapshot never mutated" d0
        (Ivm_eval.Database.canonical_digest pinned);
      let rows q = (Ivm_eval.Query.run_text pinned q).Ivm_eval.Query.rows in
      Alcotest.(check bool) "no half-applied pair in the pinned view" true
        (Relation.is_empty (rows "a(X), !b(X)"));
      Alcotest.(check int) "pinned view predates every commit" 0
        (Relation.cardinal (rows "both(X)"));
      Alcotest.(check bool) "writer fell back instead of waiting forever" true
        ((Snap_pub.stats pub).Snap_pub.full_stalled > stalled0);
      Snap_pub.release pub ~reader:0;
      (* a fresh query sees all three commits *)
      let _cols, rows' = Client.query c "both(X)" in
      Alcotest.(check int) "all pairs visible after release" 3
        (Relation.cardinal rows');
      Client.close c)

(* ---------------- request tracing ---------------- *)

let http_get port path =
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      Buffer.contents buf)

(* The tentpole's acceptance check: a single traced apply against a
   durable server decomposes into the full stage chain — in the Applied
   reply, in the completed-request ring behind [GET /requestz], and in
   the stage histograms — with exactly one fsync span per committed
   batch (ARCHITECTURE.md invariant 12) and the spans summing to
   (almost all of) the end-to-end latency. *)
let request_tracing_decomposed () =
  let dir = tmpdir "ivm_serve_reqtrace" in
  Reqtrace.reset ();
  let h_apply =
    Metrics.histogram ~labels:[ ("op", "apply") ] "ivm_serve_request_ns"
  in
  let h_fsync =
    Metrics.histogram ~labels:[ ("stage", "fsync") ] "ivm_serve_stage_ns"
  in
  let before_apply = Metrics.histogram_count h_apply in
  let before_fsync = Metrics.histogram_count h_fsync in
  let n = 5 in
  with_server ~durable:dir ab_src (fun srv _vm ->
      let c = Client.connect ~port:(Server.port srv) () in
      for i = 1 to n do
        let _seq, _deltas, timings =
          Client.apply_timed ~trace:(Printf.sprintf "t-%d" i) c (pair_batch i)
        in
        (* the Applied reply echoes every stage the writer saw; the ack
           stage is still in flight when the reply is cut *)
        List.iter
          (fun st ->
            Alcotest.(check bool)
              (st ^ " in Applied timings") true (List.mem_assoc st timings))
          [ "decode"; "queue"; "normalize"; "wal_append"; "maintain";
            "group_wait"; "fsync"; "publish" ]
      done;
      (* close waits for Bye, which the owning reader sends strictly
         after finishing the last ack — the ring is complete here *)
      Client.close c;
      let applies =
        List.filter (fun r -> r.Reqtrace.c_op = "apply") (Reqtrace.recent ())
      in
      Alcotest.(check int) "every traced apply completed into the ring" n
        (List.length applies);
      List.iter
        (fun r ->
          let names =
            List.map (fun (s : Reqtrace.stage) -> s.stage) r.Reqtrace.c_stages
          in
          List.iter
            (fun st ->
              Alcotest.(check bool)
                (st ^ " present in the stage chain")
                true (List.mem st names))
            Reqtrace.apply_stages;
          Alcotest.(check int) "exactly one fsync span (invariant 12)" 1
            (List.length (List.filter (( = ) "fsync") names));
          let sum_ns =
            List.fold_left
              (fun acc (s : Reqtrace.stage) ->
                acc + int_of_float ((s.t1 -. s.t0) *. 1e9))
              0 r.Reqtrace.c_stages
          in
          Alcotest.(check bool) "stages never exceed the end-to-end total"
            true
            (sum_ns <= r.Reqtrace.c_total_ns * 11 / 10);
          Alcotest.(check bool) "stages cover most of the request" true
            (2 * sum_ns >= r.Reqtrace.c_total_ns))
        applies;
      Alcotest.(check int) "one request_ns observation per apply" n
        (Metrics.histogram_count h_apply - before_apply);
      Alcotest.(check int) "one fsync observation per committed batch" n
        (Metrics.histogram_count h_fsync - before_fsync);
      (* and the monitor serves the same ring over HTTP *)
      let mon = Monitor.start ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Monitor.stop mon)
        (fun () ->
          let body = http_get (Monitor.port mon) "/requestz" in
          Alcotest.(check bool) "/requestz lists the traced applies" true
            (contains body "\"t-1\"");
          Alcotest.(check bool) "/requestz carries fsync spans" true
            (contains body "\"fsync\"")))

(* The process's stderr as it was at startup: Alcotest points fd 2 at a
   per-test output file while a test runs. *)
let console = Unix.dup Unix.stderr

(* [f step] under a watchdog: [step name] marks the step [f] enters.  If
   one step runs past [budget] seconds, the watchdog names it on the
   console and ends the test binary with status 124, so a hang fails in
   bounded time and says where, rather than running into the CI job's
   timeout.  The main domain may be blocked in a socket read or a domain
   join, which nothing can interrupt from here; hence the exit. *)
let with_watchdog ~budget f =
  let step = Atomic.make ("start", Unix.gettimeofday ()) in
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        while not (Atomic.get finished) do
          let name, t0 = Atomic.get step in
          if Unix.gettimeofday () -. t0 > budget then begin
            let msg =
              Printf.sprintf "watchdog: step %S made no progress for %.0f s; failing the run\n"
                name budget
            in
            ignore (Unix.write_substring console msg 0 (String.length msg));
            Unix._exit 124
          end;
          Unix.sleepf 0.05
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    (fun () -> f (fun name -> Atomic.set step (name, Unix.gettimeofday ())))

(* Satellite: bounded subscriber outboxes.  A subscriber that stops
   reading must not pin unbounded delta memory — past [max_outbox]
   pending messages its deltas are dropped (counted) and the session is
   disconnected, while well-behaved sessions keep committing.  Each step
   runs under a 60 s watchdog: filling the outbox, the disconnect drain,
   the follow-up ping/apply and the server stop. *)
let outbox_overflow_drops_and_disconnects () =
  let dropped = Metrics.counter "ivm_serve_deltas_dropped_total" in
  let config =
    { Server.default_config with max_outbox = 4; client_timeout_s = 0.5 }
  in
  with_watchdog ~budget:60. @@ fun step ->
  step "server start";
  let srv = Server.start ~config ~vm:(Vm.of_source ab_src) ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      step "server stop";
      Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      (* a subscriber that never reads: tiny receive window, then silence *)
      let sub = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt_int sub Unix.SO_RCVBUF 1;
      Unix.connect sub (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Frame.send sub
        (Protocol.request_frame
           (Protocol.Hello { version = Protocol.version; token = "" }));
      ignore (Frame.read_fd sub);
      Frame.send sub (Protocol.request_frame (Protocol.Subscribe "both"));
      ignore (Frame.read_fd sub);
      let before = Metrics.counter_value dropped in
      (* bulky tuples so deltas overrun the socket buffers quickly *)
      let blob = String.make 4096 'x' in
      let fat i : Protocol.changes =
        let tup j =
          Tuple.of_list [ Value.str (Printf.sprintf "%s-%d-%d" blob i j) ]
        in
        let rel = Relation.of_list 1 (List.init 16 (fun j -> (tup j, 1))) in
        [ ("a", rel); ("b", rel) ]
      in
      step "fill the outbox";
      let c = Client.connect ~port () in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let i = ref 0 in
      while
        Metrics.counter_value dropped = before
        && Unix.gettimeofday () < deadline
      do
        incr i;
        ignore (Client.apply c (fat !i))
      done;
      Alcotest.(check bool) "overflow counted in deltas_dropped_total" true
        (Metrics.counter_value dropped > before);
      (* the overflowing session is disconnected, not wedged *)
      step "disconnect drain";
      Unix.setsockopt_float sub Unix.SO_RCVTIMEO 10.0;
      let rec drain_to_eof budget =
        if budget = 0 then Alcotest.fail "subscriber was not disconnected"
        else
          match Frame.read_fd sub with
          | _ -> drain_to_eof (budget - 1)
          | exception Frame.Closed -> ()
          | exception Wire.Corrupt _ -> ()
          | exception Unix.Unix_error _ -> ()
      in
      drain_to_eof 10_000;
      (try Unix.close sub with Unix.Unix_error _ -> ());
      (* the well-behaved session never noticed *)
      step "follow-up ping/apply";
      Client.ping c;
      ignore (Client.apply c (pair_batch 999_999));
      Client.close c)

(* Four reader domains bump the request counters and the request/stage
   histograms concurrently; once the server has stopped (its domains
   joined), every served request is counted exactly once. *)
let request_metrics_exact () =
  let was_enabled = Reqtrace.enabled () in
  Reqtrace.set_enabled true;
  Fun.protect ~finally:(fun () -> Reqtrace.set_enabled was_enabled) @@ fun () ->
  let queries = Metrics.counter ~labels:[ ("op", "query") ] "ivm_serve_requests_total" in
  let query_ns = Metrics.histogram ~labels:[ ("op", "query") ] "ivm_serve_request_ns" in
  let ack_ns = Metrics.histogram ~labels:[ ("stage", "ack") ] "ivm_serve_stage_ns" in
  let q0 = Metrics.counter_value queries
  and qn0 = Metrics.histogram_count query_ns
  and ack0 = Metrics.histogram_count ack_ns in
  let clients = 4 and k = 100 in
  let vm = Vm.of_source ab_src in
  let srv =
    Server.start ~config:{ Server.default_config with readers = 4 } ~vm ~port:0 ()
  in
  (Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
   let port = Server.port srv in
   List.init clients (fun d ->
       Domain.spawn (fun () ->
           let c = Client.connect ~port () in
           for i = 1 to k do
             ignore (Client.query c "both(X)");
             ignore (Client.apply c (pair_batch ((d * k) + i)))
           done;
           Client.close c))
   |> List.iter Domain.join);
  Alcotest.(check int) "requests_total{op=query}" (clients * k)
    (Metrics.counter_value queries - q0);
  Alcotest.(check int) "request_ns{op=query} count" (clients * k)
    (Metrics.histogram_count query_ns - qn0);
  (* every request acks: a hello, k queries, k applies and a close each *)
  Alcotest.(check int) "stage_ns{stage=ack} count"
    (clients * ((2 * k) + 2))
    (Metrics.histogram_count ack_ns - ack0)

(* An answer over the 64 MiB frame cap: six distinct 1 MiB strings
   crossed with themselves are 36 rows of two values, about 72 MiB
   encoded.  The client gets a typed [query_failed] naming the size and
   the limit instead of a frame it would reject as corrupt, and the
   session stays usable. *)
let oversized_answer_refused () =
  with_server "big(X) :- blob(X).\n" (fun srv _vm ->
      let c = Client.connect ~port:(Server.port srv) () in
      let blob i = Value.str (String.make (1 lsl 20) (Char.chr (Char.code 'a' + i))) in
      ignore
        (Client.apply c
           [ ("blob", Relation.of_list 1 (List.init 6 (fun i -> (Tuple.of_list [ blob i ], 1)))) ]);
      (match Client.query c "big(A), big(B)" with
      | _ -> Alcotest.fail "an answer above the frame cap was sent"
      | exception Client.Server_error (Protocol.Query_failed, msg) ->
        Alcotest.(check bool)
          ("message names the limit: " ^ msg)
          true
          (contains msg (string_of_int Ivm_wire.Frame.max_payload)));
      Client.ping c;
      let _, rows = Client.query c "big(A)" in
      Alcotest.(check int) "session still answers" 6 (Relation.cardinal rows);
      Client.close c)

(* ---------------- golden frame bytes ---------------- *)

(* A frame of every request and response constructor, byte for byte:
   the format is a compatibility contract (docs/PROTOCOL.md), so any
   change to the writers must reproduce these bytes.  Each frame must
   come out the same through [*_frame] and through [Frame.encode] of the
   payload. *)
let golden_message_frames () =
  let pairs =
    Relation.of_list 2
      [
        (Tuple.of_list [ Value.str "a"; Value.int 1 ], 2);
        (Tuple.of_list [ Value.str "b"; Value.int (-3) ], -1);
      ]
  and mixed =
    Relation.of_list 3
      [
        (Tuple.of_list [ Value.str "x y"; Value.float 2.5; Value.bool true ], 1);
        (Tuple.of_list [ Value.str ""; Value.float (-0.125); Value.bool false ], 3);
      ]
  in
  let hex s =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
  in
  let check name frame payload want =
    Alcotest.(check string) (name ^ " frame") want (hex frame);
    Alcotest.(check string) (name ^ " framed payload") want (hex (Frame.encode payload))
  in
  List.iter
    (fun (name, req, want) ->
      check name (Protocol.request_frame req) (Protocol.encode_request req) want)
    [
      ( "hello",
        Protocol.Hello { version = 1; token = "s3cret" },
        "17000000c0d3c4880149564d53525630310100000006000000733363726574" );
      ( "ping",
        Protocol.Ping,
        "01000000a18e0c3c02" );
      ( "query",
        Protocol.Query { body = "hop(a, X)"; trace = "" },
        "0e00000084d783850309000000686f7028612c205829" );
      ( "query_traced",
        Protocol.Query { body = "hop(a, X)"; trace = "00-ab-01" },
        ("1a000000fc8c60040309000000686f7028612c2058290800000030302d61622d"
          ^ "3031") );
      ( "apply",
        Protocol.Apply { changes = [ ("link", pairs) ]; trace = "" },
        ("43000000bd3e566f0401000000040000006c696e6b0200000002000000020100"
          ^ "000061000100000000000000020000000000000002010000006200fdffffffff"
          ^ "ffffffffffffffffffffff") );
      ( "apply_traced",
        Protocol.Apply { changes = [ ("link", pairs); ("w", mixed) ]; trace = "t1" },
        ("8900000075e09d1d0402000000040000006c696e6b0200000002000000020100"
          ^ "000061000100000000000000020000000000000002010000006200fdffffffff"
          ^ "ffffffffffffffffffffff010000007703000000020000000200000000010000"
          ^ "00000000c0bf0300030000000000000002030000007820790100000000000004"
          ^ "4003010100000000000000020000007431") );
      ( "subscribe",
        Protocol.Subscribe "hop",
        "080000005c578ee80503000000686f70" );
      ( "status",
        Protocol.Status,
        "01000000b84a613b06" );
      ( "close",
        Protocol.Close,
        "010000002e7a664c07" );
    ];
  List.iter
    (fun (name, resp, want) ->
      check name (Protocol.response_frame resp) (Protocol.encode_response resp) want)
    [
      ( "hello_ok",
        Protocol.Hello_ok { version = 1; seq = 42 },
        "0d000000e1889b8181010000002a00000000000000" );
      ( "pong",
        Protocol.Pong,
        "01000000810db4d182" );
      ( "answer_mixed",
        Protocol.Answer { columns = [ "S"; "F"; "B" ]; rows = mixed },
        ("4f0000006a962f46830300000001000000530100000046010000004203000000"
          ^ "02000000020000000001000000000000c0bf0300030000000000000002030000"
          ^ "0078207901000000000000044003010100000000000000") );
      ( "answer_empty",
        Protocol.Answer { columns = [ "X"; "Y" ]; rows = Relation.create 2 },
        "1700000006acc39b8302000000010000005801000000590200000000000000" );
      ( "applied",
        Protocol.Applied { seq = 9; deltas = [ ("hop", pairs) ]; timings = [] },
        ("4a00000047591ce88409000000000000000100000003000000686f7002000000"
          ^ "0200000002010000006100010000000000000002000000000000000201000000"
          ^ "6200fdffffffffffffffffffffffffffffff") );
      ( "applied_timed",
        Protocol.Applied
          {
            seq = 9;
            deltas = [ ("hop", pairs); ("w", mixed) ];
            timings = [ ("maintain", 1234); ("fsync", 56789) ];
          },
        ("b3000000a61e1ed38409000000000000000200000003000000686f7002000000"
          ^ "0200000002010000006100010000000000000002000000000000000201000000"
          ^ "6200fdffffffffffffffffffffffffffffff0100000077030000000200000002"
          ^ "0000000001000000000000c0bf03000300000000000000020300000078207901"
          ^ "00000000000004400301010000000000000002000000080000006d61696e7461"
          ^ "696ed204000000000000050000006673796e63d5dd000000000000") );
      ( "sub_ok",
        Protocol.Sub_ok "hop",
        "0800000086d2b5bb8503000000686f70" );
      ( "status_reply",
        Protocol.Status_reply "{\"ok\":true}",
        "10000000c78770f1860b0000007b226f6b223a747275657d" );
      ( "bye",
        Protocol.Bye,
        "010000000ef9dea187" );
      ( "delta",
        Protocol.Delta { seq = 3; pred = "hop"; delta = pairs },
        ("460000006e38641188030000000000000003000000686f700200000002000000"
          ^ "020100000061000100000000000000020000000000000002010000006200fdff"
          ^ "ffffffffffffffffffffffffffff") );
      ( "error",
        Protocol.Error
          { code = Protocol.Quota_exceeded; message = "session limit 2 reached" },
        ("1d0000007cd95aa87f061700000073657373696f6e206c696d69742032207265"
          ^ "6163686564") );
    ]

let suite =
  [
    request_roundtrip;
    response_roundtrip;
    frame_roundtrip;
    answer_size_exact;
    quick "codec: trace context is v1 wire compatible" trace_context_wire_compat;
    quick "codec: trailing bytes rejected" trailing_bytes_rejected;
    quick "format: golden request and response frames" golden_message_frames;
    quick "frame: bit flip detected by CRC" corrupt_frame_rejected;
    quick "frame: truncation reads as Closed" truncated_frame_is_closed;
    hostile_frames_fail_bounded;
    quick "apply_group: one fsync per group" group_commit_single_fsync;
    quick "apply_group: bad batch isolated, log stays clean"
      group_commit_isolates_bad_batch;
    quick "server: hello/ping/query/apply/status" basic_session;
    quick "server: answer above the frame cap is a typed error" oversized_answer_refused;
    quick "server: concurrent readers see atomic batches" snapshot_consistency;
    quick "server: subscriber receives per-batch deltas"
      subscriber_receives_deltas;
    quick "server: dead subscriber does not wedge the writer"
      dead_subscriber_does_not_wedge_writer;
    quick "server: version and auth gatekeeping" handshake_gatekeeping;
    quick "server: hostile frames before hello get bad_request"
      hostile_frames_before_hello;
    quick "server: session and batch quotas" quotas_enforced;
    quick "server: acked batches survive kill and reopen"
      acked_batches_survive_reopen;
    quick "server: held snapshot stays consistent across commits"
      held_snapshot_stays_consistent;
    quick "reqtrace: one apply decomposes into the full stage chain"
      request_tracing_decomposed;
    quick "server: overflowing subscriber outbox is bounded"
      outbox_overflow_drops_and_disconnects;
    quick "server: request metrics exact under 4 readers"
      request_metrics_exact;
  ]
