(** The durable layer ([ivm_store]) and its recovery invariant.

    Units: CRC-32 check values, wire-codec round-trips, snapshot
    save/load identity (including aggregate indexes, distinct views and
    duplicate semantics), WAL append/scan, corruption detection.

    The headline property is fault injection: build a durable manager,
    stream random batches at it, truncate the log at a {e random byte
    offset} (simulating a crash mid-write), recover, and demand the
    recovered state equal a fresh manager that applied exactly the
    batches whose log frames survived — no more, no fewer. *)

open Util
module Crc32 = Ivm_wire.Crc32
module Wire = Ivm_wire.Wire
module Snapshot = Ivm_store.Snapshot
module Wal = Ivm_store.Wal
module Store = Ivm_store.Store
module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Update_gen = Ivm_workload.Update_gen
module Programs = Ivm_workload.Programs

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                  *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

(** A fresh scratch directory; removed when [f] returns or raises. *)
let with_dir (f : string -> 'a) : 'a =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivm_store_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* CRC-32 and the wire codec                                            *)
(* ------------------------------------------------------------------ *)

let crc_check_values () =
  Alcotest.(check int32) "empty" 0l (Crc32.digest "");
  (* the standard CRC-32/IEEE check value *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.digest "123456789");
  let s = "incremental view maintenance" in
  Alcotest.(check int32) "incremental = one-shot"
    (Crc32.digest s)
    (Crc32.update (Crc32.update 0l s 0 11) s 11 (String.length s - 11))

let wire_value_roundtrip () =
  let values =
    [ Value.int 0; Value.int (-42); Value.int max_int;
      Value.float 0.1; Value.float (-1e300); Value.float Float.infinity;
      Value.str ""; Value.str "with \"escapes\"\n\000";
      Value.bool true; Value.bool false ]
  in
  let size = List.fold_left (fun acc v -> acc + Wire.value_size v) 0 values in
  let r =
    Wire.reader (Bytes.to_string (Wire.block size (fun w -> List.iter (Wire.put_value w) values)))
  in
  List.iter
    (fun v ->
      let v' = Wire.get_value r in
      if Value.compare v v' <> 0 then
        Alcotest.failf "wire round-trip changed %s to %s" (Value.to_string v)
          (Value.to_string v'))
    values;
  Alcotest.(check int) "no trailing bytes" 0 (Wire.remaining r)

let wire_relation_roundtrip () =
  let rel = rel_of_pairs "ab; ac 3; bc 2" in
  let r =
    Wire.reader
      (Bytes.to_string (Wire.block (Wire.relation_size rel) (fun w -> Wire.put_relation w rel)))
  in
  check_rel "relation round-trips with counts" rel (Wire.get_relation r)

let wire_rejects_truncation () =
  let s =
    Bytes.to_string
      (Wire.block (Wire.string_size "hello world") (fun w -> Wire.put_string w "hello world"))
  in
  let r = Wire.reader (String.sub s 0 (String.length s - 3)) in
  match Wire.get_string r with
  | _ -> Alcotest.fail "truncated string decoded"
  | exception Wire.Corrupt _ -> ()

(* A declared row count is untrusted: it must not size an allocation the
   remaining bytes cannot back. *)
let wire_rejects_hostile_row_count () =
  List.iter
    (fun rows ->
      let payload = hostile_apply_payload rows in
      let (), words =
        allocated_words (fun () ->
            match Ivm_serve.Protocol.decode_request payload with
            | _ -> Alcotest.failf "%d declared rows decoded from 21 bytes" rows
            | exception Wire.Corrupt _ -> ())
      in
      if words > 4096. then
        Alcotest.failf "%d declared rows allocated %.0f words" rows words;
      (* the codec on its own, with a body that is merely short *)
      let body =
        Wire.block (8 + Wire.value_size (Value.int 1)) (fun w ->
            Wire.put_u32 w 2;
            Wire.put_u32 w rows;
            Wire.put_value w (Value.int 1))
      in
      match Wire.get_relation (Wire.reader (Bytes.to_string body)) with
      | _ -> Alcotest.failf "%d declared rows decoded" rows
      | exception Wire.Corrupt _ -> ())
    [ 0xFFFFFFF0; 20_000_000 ]

(* ------------------------------------------------------------------ *)
(* Formats unchanged: CRC oracle, golden bytes, allocation guards        *)
(* ------------------------------------------------------------------ *)

(* The bytewise int32 table loop [Crc32] used before slicing-by-8, kept
   as the oracle: every checksum in a store or frame written by the old
   code must verify under the new one, and the other way round. *)
let crc_oracle =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          if Int32.logand !c 1l <> 0l then
            c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else c := Int32.shift_right_logical !c 1
        done;
        !c)
  in
  fun crc s pos len ->
    let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
    for i = pos to pos + len - 1 do
      let b = Int32.of_int (Char.code s.[i]) in
      c :=
        Int32.logxor
          table.(Int32.to_int (Int32.logand (Int32.logxor !c b) 0xFFl))
          (Int32.shift_right_logical !c 8)
    done;
    Int32.logxor !c 0xFFFFFFFFl

let crc_matches_oracle =
  let gen =
    QCheck.Gen.(
      string_size (int_range 0 300) >>= fun s ->
      let n = String.length s in
      int_range 0 n >>= fun pos ->
      int_range pos n >>= fun split ->
      int_range split n >>= fun stop -> return (s, pos, split, stop))
  in
  let print (s, pos, split, stop) =
    Printf.sprintf "len=%d pos=%d split=%d stop=%d %S" (String.length s) pos
      split stop s
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"crc32: slicing-by-8 = bytewise oracle"
       (QCheck.make ~print gen) (fun (s, pos, split, stop) ->
         let want = crc_oracle 0l s pos (stop - pos) in
         let b = Bytes.of_string s in
         Crc32.update 0l s pos (stop - pos) = want
         && Crc32.update (Crc32.update 0l s pos (split - pos)) s split (stop - split)
            = want
         && Crc32.update_bytes
              (Crc32.update_bytes 0l b pos (split - pos))
              b split (stop - split)
            = want
         && crc_oracle (Crc32.update 0l s pos (split - pos)) s split (stop - split)
            = want))

(* Bytes produced before slicing-by-8 and the one-block frame builder. *)
let golden_frame () =
  let delta =
    Relation.of_list 3
      [
        (Tuple.of_list [ Value.str "b"; Value.int (-7); Value.float 0.5 ], -1);
        (Tuple.of_list [ Value.str "a"; Value.int 300; Value.bool true ], 2);
      ]
  in
  let payload =
    Ivm_serve.Protocol.encode_response
      (Ivm_serve.Protocol.Applied
         { seq = 42; deltas = [ ("hop", delta) ]; timings = [] })
  in
  let hex s =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
  in
  Alcotest.(check string) "frame bytes"
    ("5500000053af15b0842a000000000000000100000003000000686f70030000000200"
   ^ "0000020100000061002c010000000000000301020000000000000002010000006200"
   ^ "f9ffffffffffffff01000000000000e03fffffffffffffffff")
    (hex (Ivm_wire.Frame.encode payload))

(* One WAL record frame, byte for byte: stores written by any earlier
   build must replay, so a change to the writers must reproduce it. *)
let golden_wal_record () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
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
      let w, _ = Wal.open_append ~path in
      Wal.append ~sync:false w ~seq:5 [ ("link", pairs); ("w", mixed) ];
      Wal.close w;
      let s = In_channel.with_open_bin path In_channel.input_all in
      let record = String.sub s Wal.header_size (String.length s - Wal.header_size) in
      Alcotest.(check string) "record frame bytes"
        ("8a0000006280c6eb050000000000000002000000040000006c696e6b02000000"
         ^ "0200000002010000006100010000000000000002000000000000000201000000"
         ^ "6200fdffffffffffffffffffffffffffffff0100000077030000000200000002"
         ^ "0000000001000000000000c0bf03000300000000000000020300000078207901"
         ^ "000000000000044003010100000000000000")
        (String.concat ""
           (List.map
              (fun c -> Printf.sprintf "%02x" (Char.code c))
              (List.of_seq (String.to_seq record)))))

(* A size pass and a write pass that disagree must raise, not leave a
   short block or write past it. *)
let writer_checks_size () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  raises "block written short" (fun () -> Wire.block 5 (fun w -> Wire.put_u32 w 1));
  raises "block written past its end" (fun () -> Wire.block 3 (fun w -> Wire.put_u32 w 1));
  raises "frame payload written short" (fun () ->
      Ivm_wire.Frame.build 9 (fun w -> Wire.put_i64 w 1));
  raises "frame payload written long" (fun () ->
      Ivm_wire.Frame.build 7 (fun w -> Wire.put_i64 w 1));
  Alcotest.(check int) "an exact fill is the block" 12
    (Bytes.length
       (Wire.block 12 (fun w ->
            Wire.put_i64 w 1;
            Wire.put_u32 w 2)))

(** Snapshot [image] with its version set and its semantics byte mapped
    by [flags], the CRC trailer recomputed. *)
let with_header ~version ~flags (image : string) : string =
  let b = Bytes.of_string image in
  let n = Bytes.length b in
  Bytes.set_int32_le b 8 (Int32.of_int version);
  Bytes.set_uint8 b 12 (flags (Bytes.get_uint8 b 12));
  Bytes.set_int32_le b (n - 4) (Crc32.update_bytes 0l b 0 (n - 4));
  Bytes.unsafe_to_string b

(** [image] rewritten as a version-1 snapshot, as it was written before
    the counts mark existed: bits 1-2 of the semantics byte cleared. *)
let as_version_1 = with_header ~version:1 ~flags:(fun f -> f land lnot 6)

(** Rewrite the snapshot file at [path] with {!as_version_1}. *)
let rewrite_as_version_1 path =
  let image = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (as_version_1 image))

(* The version-2 golden, and the version-1 golden kept as a decode
   fixture: the same state written before the counts mark existed must
   still load, unmarked and unchanged. *)
let golden_snapshot () =
  let db =
    db_of_source ~semantics:Database.Duplicate_semantics
      {|
        link(a, b). link(a, b). link(b, c). link(c, d). link(a, d).
        w(1, 2.5, "x y", true). w(-7, 0.125, "", false). w(3, 1.0, "z", true).
        hop(X, Y) :- link(X, Z), link(Z, Y).
        far(X) :- hop(X, Y), not link(X, Y).
        named(Z, B) :- w(X, Y, Z, B).
      |}
  in
  let s = Snapshot.encode ~counts:Snapshot.Exact ~seq:7 db in
  Alcotest.(check int) "snapshot length" 545 (String.length s);
  Alcotest.(check int32) "snapshot CRC trailer" 0x076ab42al
    (String.get_int32_le s (String.length s - 4));
  Alcotest.(check string) "snapshot MD5" "92cbf2edd9f0f62b648960d370c74901"
    (Digest.to_hex (Digest.string s));
  let v1 = as_version_1 s in
  Alcotest.(check int32) "version-1 CRC trailer" 0x2388bd10l
    (String.get_int32_le v1 (String.length v1 - 4));
  Alcotest.(check string) "version-1 MD5" "dbd78399ec7c5bc93daf3ce8f12d1b5f"
    (Digest.to_hex (Digest.string v1));
  let db1, seq, counts = Snapshot.decode v1 in
  Alcotest.(check int) "version-1 sequence" 7 seq;
  Alcotest.(check bool) "a version-1 image is unmarked" true (counts = None);
  Alcotest.(check bool) "version-1 state unchanged" true (Database.agree db db1)

let allocation_guards () =
  let at_most limit what f =
    let r, words = allocated_words f in
    ignore (Sys.opaque_identity r);
    if words > limit then Alcotest.failf "%s allocated %.0f words (limit %.0f)" what words limit
  in
  let mib = String.init (1 lsl 20) (fun i -> Char.chr ((i * 7919) land 0xff)) in
  at_most 64. "Crc32.digest of 1 MiB" (fun () -> Crc32.digest mib);
  let payload = String.sub mib 0 (64 * 1024) in
  (* the frame: 8 header bytes + payload, one block with its header word *)
  let block = float_of_int (((String.length payload + 8) / 8) + 2) in
  at_most (block +. 64.) "Frame.encode of 64 KiB" (fun () -> Ivm_wire.Frame.encode payload);
  let ints =
    Wire.block (12 * 10_000) (fun w ->
        at_most 64. "10,000 put_i64 + put_u32" (fun () ->
            for i = 1 to 10_000 do
              Wire.put_i64 w (i * -0x1234567);
              Wire.put_u32 w i
            done))
  in
  let r = Wire.reader (Bytes.to_string ints) in
  at_most 64. "10,000 get_i64 + get_u32" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Sys.opaque_identity (Wire.get_i64 r));
        ignore (Sys.opaque_identity (Wire.get_u32 r))
      done)

(* ------------------------------------------------------------------ *)
(* Snapshot                                                             *)
(* ------------------------------------------------------------------ *)

let snapshot_source =
  {|
    link(a, b). link(b, c). link(c, d). link(a, d).
    hop(X, Y) :- link(X, Z), link(Z, Y).
    out_deg(X, N) :- groupby(link(X, Y), [X], N = count()).
    far(X) :- hop(X, Y), not link(X, Y).
  |}

let snapshot_roundtrip () =
  let db = db_of_source snapshot_source in
  List.iter
    (fun counts ->
      let s = Snapshot.encode ~counts ~seq:7 db in
      let db2, seq, counts2 = Snapshot.decode s in
      Alcotest.(check int) "sequence survives" 7 seq;
      Alcotest.(check bool) "counts mark survives" true (counts2 = Some counts);
      Alcotest.(check bool) "state survives" true (Database.agree db db2);
      (* the snapshot is byte-stable: same state, same bytes *)
      Alcotest.(check string) "deterministic encoding" s
        (Snapshot.encode ~counts ~seq:7 db2))
    [ Snapshot.Exact; Snapshot.Stale ]

(* Version 2 has one mark bit and refuses bit 2; version 1 reads as
   unmarked whatever its bits 1-2 hold. *)
let snapshot_mark_bits () =
  let s = Snapshot.encode ~counts:Snapshot.Stale ~seq:7 (db_of_source snapshot_source) in
  Alcotest.(check int) "the stale bit" 2 (Char.code s.[12]);
  (match Snapshot.decode (with_header ~version:2 ~flags:(fun f -> f lor 4) s) with
  | _ -> Alcotest.fail "a version-2 image with bit 2 set decoded"
  | exception Snapshot.Corrupt _ -> ());
  let _, _, counts = Snapshot.decode (with_header ~version:1 ~flags:(fun f -> f lor 6) s) in
  Alcotest.(check bool) "version 1, bits 1-2 set: unmarked" true (counts = None)

let snapshot_duplicate_semantics () =
  let db =
    db_of_source ~semantics:Database.Duplicate_semantics
      {|
        link(a, b). link(a, b). link(b, c).
        hop(X, Y) :- link(X, Z), link(Z, Y).
      |}
  in
  let db2, _, _ = Snapshot.decode (Snapshot.encode ~counts:Snapshot.Exact ~seq:0 db) in
  Alcotest.(check bool) "duplicate counts survive" true (Database.agree db db2);
  check_rel "hop multiplicity 2" (rel_of_pairs "ac 2")
    (Database.relation db2 "hop")

let snapshot_agg_indexes () =
  let db = db_of_source snapshot_source in
  List.iter
    (fun rule ->
      List.iter
        (fun lit ->
          match lit with
          | Ast.Lagg agg ->
            ignore
              (Database.register_agg_index db
                 (Ivm_eval.Compile.compile_agg_spec agg))
          | _ -> ())
        rule.Ast.body)
    (Program.rules (Database.program db));
  let db2, _, _ = Snapshot.decode (Snapshot.encode ~counts:Snapshot.Exact ~seq:0 db) in
  Alcotest.(check (list string))
    "registered aggregate indexes survive the round-trip"
    (Database.agg_signatures db) (Database.agg_signatures db2)

(* A directory fsync swallows only EINVAL (a filesystem that cannot sync
   a directory); a missing directory is an error. *)
let fsync_dir_reports_errors () =
  with_dir (fun dir ->
      Ivm_store.Fsutil.fsync_dir dir;
      match Ivm_store.Fsutil.fsync_dir (Filename.concat dir "missing") with
      | () -> Alcotest.fail "fsync of a missing directory succeeded"
      | exception Unix.Unix_error _ -> ())

let snapshot_detects_corruption () =
  with_dir (fun dir ->
      let db = db_of_source snapshot_source in
      let path = Filename.concat dir "snap" in
      ignore (Snapshot.save ~counts:Snapshot.Exact ~path ~seq:1 db);
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let broken = Bytes.of_string bytes in
      let mid = Bytes.length broken / 2 in
      Bytes.set broken mid (Char.chr (Char.code (Bytes.get broken mid) lxor 1));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc broken);
      match Snapshot.load ~path with
      | _ -> Alcotest.fail "corrupt snapshot loaded"
      | exception Snapshot.Corrupt _ -> ())

(* ------------------------------------------------------------------ *)
(* Store protocol                                                       *)
(* ------------------------------------------------------------------ *)

let initialize_twice_refused () =
  with_dir (fun dir ->
      let db = db_of_source snapshot_source in
      let s = Store.initialize ~counts:Snapshot.Exact ~dir db in
      Store.close s;
      match Store.initialize ~counts:Snapshot.Exact ~dir db with
      | _ -> Alcotest.fail "re-initialize over an existing store"
      | exception Invalid_argument _ -> ())

let open_missing_refused () =
  with_dir (fun dir ->
      match Store.open_ ~dir:(Filename.concat dir "nowhere") with
      | _ -> Alcotest.fail "opened a non-store"
      | exception Store.Corrupt _ -> ())

(* Crash between [Snapshot.save] and [Wal.reset] during compaction: the
   log still holds records the new snapshot already covers.  Recovery
   must skip them by sequence number instead of replaying them twice. *)
let compaction_crash_skips_covered_records () =
  with_dir (fun dir ->
      let vm = Vm.of_source ~durable:dir snapshot_source in
      ignore (Vm.insert vm "link" (pairs "bd"));
      ignore (Vm.delete vm "link" (pairs "ad"));
      let db = Vm.database vm in
      (* the first half of compaction, then "crash" before the log reset *)
      ignore (Snapshot.save ~counts:Snapshot.Exact ~path:(Store.snapshot_file dir) ~seq:2 db);
      Vm.close_store vm;
      let vm2, recovery = Vm.open_durable dir in
      Alcotest.(check int) "both records skipped" 2 recovery.Store.skipped_records;
      Alcotest.(check int) "nothing replayed" 0
        (List.length recovery.Store.replayed);
      Alcotest.(check bool) "state agrees" true
        (Database.agree db (Vm.database vm2));
      Vm.close_store vm2)

(* ------------------------------------------------------------------ *)
(* Crash-recovery fault injection                                       *)
(* ------------------------------------------------------------------ *)

let q ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let seed_gen =
  QCheck.Gen.(map (fun s -> s) (int_range 1 1_000_000))
  |> QCheck.make ~print:(Printf.sprintf "seed=%d")

(** Build a durable manager over a random graph, apply [steps] random
    batches recording where each log frame ends, and return the initial
    tuples, the batches, and the frame end offsets. *)
let durable_run ~dir rng ~nodes ~edges ~steps =
  let tuples = Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges) in
  let vm =
    Vm.create ~durable:dir
      ~facts:[ ("link", tuples) ]
      (Parser.parse_rules Ivm_workload.Programs.hop_tri_hop)
  in
  let batches = ref [] and offsets = ref [] in
  for _ = 1 to steps do
    let changes =
      Update_gen.mixed rng (Vm.database vm) "link" ~nodes
        ~dels:(Prng.int rng 3) ~ins:(Prng.int rng 4)
    in
    ignore (Vm.apply vm changes);
    batches := changes :: !batches;
    let st = Option.get (Vm.store_status vm) in
    offsets := st.Store.wal_bytes :: !offsets
  done;
  Vm.close_store vm;
  (tuples, List.rev !batches, List.rev !offsets)

let oracle ~tuples batches =
  let vm =
    Vm.create
      ~facts:[ ("link", tuples) ]
      (Parser.parse_rules Ivm_workload.Programs.hop_tri_hop)
  in
  List.iter (fun c -> ignore (Vm.apply vm c)) batches;
  vm

let crash_recovery_prop =
  q ~count:40 "truncate log at a random offset, recover = surviving prefix"
    seed_gen
    (fun seed ->
      with_dir (fun dir ->
          let rng = Prng.create seed in
          let nodes = 8 and edges = 14 and steps = 5 in
          let tuples, batches, offsets =
            durable_run ~dir rng ~nodes ~edges ~steps
          in
          let wal = Store.wal_file dir in
          let size = (Unix.stat wal).Unix.st_size in
          (* cut anywhere from just after the header to the full file *)
          let cut = Wal.header_size + Prng.int rng (size - Wal.header_size + 1) in
          Unix.truncate wal cut;
          let survivors =
            List.length (List.filter (fun o -> o <= cut) offsets)
          in
          let vm, recovery = Vm.open_durable dir in
          let expected = oracle ~tuples (List.filteri (fun i _ -> i < survivors) batches) in
          let ok =
            List.length recovery.Store.replayed = survivors
            && Database.agree (Vm.database expected) (Vm.database vm)
          in
          Vm.close_store vm;
          ok))

(* Flipping one byte inside a record must drop that record and everything
   after it (the scan cannot trust frame boundaries past a bad CRC), and
   recovery must land exactly on the preceding prefix. *)
let corruption_recovery_prop =
  q ~count:40 "flip a log byte, recover = prefix before the damage"
    seed_gen
    (fun seed ->
      with_dir (fun dir ->
          let rng = Prng.create seed in
          let nodes = 8 and edges = 14 and steps = 5 in
          let tuples, batches, offsets =
            durable_run ~dir rng ~nodes ~edges ~steps
          in
          let wal = Store.wal_file dir in
          let size = (Unix.stat wal).Unix.st_size in
          let pos = Wal.header_size + Prng.int rng (size - Wal.header_size) in
          let fd = Unix.openfile wal [ Unix.O_RDWR ] 0 in
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          let b = Bytes.create 1 in
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5A));
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1);
          Unix.close fd;
          (* the flip lands inside the first non-surviving frame: the scan
             stops there, so exactly the frames before it replay *)
          let survivors =
            List.length (List.filter (fun o -> o <= pos) offsets)
          in
          let vm, recovery = Vm.open_durable dir in
          let expected = oracle ~tuples (List.filteri (fun i _ -> i < survivors) batches) in
          let ok =
            List.length recovery.Store.replayed = survivors
            && recovery.Store.damage <> None
            && Database.agree (Vm.database expected) (Vm.database vm)
          in
          Vm.close_store vm;
          ok))

(* ------------------------------------------------------------------ *)
(* End-to-end durability through the manager                            *)
(* ------------------------------------------------------------------ *)

let reopen_after_rule_change () =
  with_dir (fun dir ->
      let vm = Vm.of_source ~durable:dir snapshot_source in
      ignore (Vm.insert vm "link" (pairs "bd"));
      Vm.add_rule_text vm "far2(X, Y) :- hop(X, Z), hop(Z, Y).";
      ignore (Vm.insert vm "link" (pairs "db"));
      Vm.close_store vm;
      let vm2, _ = Vm.open_durable dir in
      Alcotest.(check bool) "rule change + later batches survive" true
        (Database.agree (Vm.database vm) (Vm.database vm2));
      Alcotest.(check bool) "the added view is defined after reopen" true
        (List.mem "far2" (Program.derived_preds (Vm.program vm2)));
      Vm.close_store vm2)

let compact_then_reopen () =
  with_dir (fun dir ->
      let vm = Vm.of_source ~durable:dir snapshot_source in
      ignore (Vm.insert vm "link" (pairs "bd"));
      ignore (Vm.delete vm "link" (pairs "ab"));
      Vm.compact vm;
      let st = Option.get (Vm.store_status vm) in
      Alcotest.(check int) "log empty after compaction" 0 st.Store.wal_records;
      ignore (Vm.insert vm "link" (pairs "ab"));
      Vm.close_store vm;
      let vm2, recovery = Vm.open_durable dir in
      Alcotest.(check int) "only the post-compaction record replays" 1
        (List.length recovery.Store.replayed);
      Alcotest.(check bool) "state agrees" true
        (Database.agree (Vm.database vm) (Vm.database vm2));
      Vm.close_store vm2)

(* One insertion into a float AVG group: every algorithm reaches the
   value recomputation reaches, and the store reopens.  Materialization,
   Algorithm 6.1's per-group recompute and the replay meet the group's
   values in different orders, so its value must not depend on order. *)
let float_avg_insert_reopens () =
  let src =
    "f(a, 8.7). f(a, 3.166). f(a, -1.36). f(a, 0.92).\n\
     s(P, T) :- groupby(f(P, X), [P], T = avg(X))."
  in
  List.iter
    (fun (name, algorithm) ->
      with_dir (fun dir ->
          let vm = Vm.of_source ~algorithm ~durable:dir src in
          ignore (Vm.insert vm "f" [ Tuple.of_list [ Value.str "a"; Value.float 9.41 ] ]);
          Alcotest.(check (result unit string)) (name ^ ": audit") (Ok ()) (Vm.audit vm);
          Alcotest.(check int) (name ^ ": one group tuple") 1
            (Relation.cardinal (Vm.relation vm "s"));
          Vm.close_store vm;
          let vm2, _ = Vm.open_durable ~algorithm dir in
          Alcotest.(check bool) (name ^ ": reopened state agrees") true
            (Database.agree (Vm.database vm) (Vm.database vm2));
          Alcotest.(check (result unit string)) (name ^ ": reopened audit") (Ok ())
            (Vm.audit vm2);
          Vm.close_store vm2))
    [
      ("counting", Vm.Counting);
      ("auto", Vm.Auto);
      ("dred-counted", Vm.Dred_counted);
      ("recompute", Vm.Recompute);
    ]

(* The two-route diamond 1→{2,3}→4, and a 20-edge chain elsewhere that
   keeps each one-link batch under Auto's thresholds, so every deletion
   below is maintained incrementally, not re-evaluated. *)
let diamond_link (a, b) = Tuple.make [| Value.Int a; Value.Int b |]

let diamond_facts =
  let chain = List.init 20 (fun i -> (100 + i, 101 + i)) in
  [ ("link", List.map diamond_link ([ (1, 2); (2, 4); (1, 3); (3, 4) ] @ chain)) ]

let mark_name = function Snapshot.Exact -> "exact" | Snapshot.Stale -> "stale"

(* [None]: an unmarked (version-1) image *)
let check_mark what expected actual =
  Alcotest.(check (option string)) what
    (Option.map mark_name expected) (Option.map mark_name actual)

(* Explicit DRed lets derivation counts go stale, so its snapshots are
   marked; reopened under a count-exact resolution, the views are
   re-derived before the tail replays.  [program] runs over the diamond
   under explicit DRed with a store: hop(1,4) has two derivations, and
   after deleting link(1,2) DRed leaves it with a stale count of 2;
   path(1,4) has two derivations too, but DRed stores the closure as a
   set, with count 1.  The store is compacted and reopened under the
   default Auto — counting for hop, counted DRed for path — and one more
   link is deleted.  Trusting the stale counts, hop(1,4) would survive
   the loss of its last derivation and path(1,4) would fall with its
   first; the audit compares counts.  Auto's own snapshot is then marked
   exact. *)
let stale_counts_rederived ~view ~before ~after ~present program () =
  with_dir (fun dir ->
      let vm =
        Vm.create ~algorithm:Vm.Dred ~durable:dir ~facts:diamond_facts
          (Parser.parse_rules program)
      in
      ignore (Vm.delete vm "link" (List.map diamond_link before));
      Vm.compact vm;
      let bytes = In_channel.with_open_bin (Store.snapshot_file dir) In_channel.input_all in
      Alcotest.(check int) "a DRed snapshot's mark bits" 2 (Char.code bytes.[12] land 6);
      Vm.close_store vm;
      let reopened, recovery = Vm.open_durable dir in
      check_mark "recovery reports the mark" (Some Snapshot.Stale) recovery.Store.counts;
      ignore (Vm.delete reopened "link" (List.map diamond_link after));
      Alcotest.(check bool)
        (Printf.sprintf "%s(1,4) present" view)
        present
        (Relation.mem (Vm.relation reopened view) (diamond_link (1, 4)));
      Alcotest.(check (result unit string)) "audit, with counts" (Ok ()) (Vm.audit reopened);
      Vm.compact reopened;
      Vm.close_store reopened;
      let again, recovery = Vm.open_durable dir in
      Vm.close_store again;
      check_mark "Auto's snapshot" (Some Snapshot.Exact) recovery.Store.counts)

(* A version-1 image is unmarked, and re-derived under every count-exact
   resolution.  Explicit DRed builds the hop diamond with a store and
   deletes link(1,2), leaving hop(1,4) with a stale count of 2; the
   compacted image is rewritten as DRed wrote it before the mark existed.
   Reopened under Auto (Counting on hop) and trusted, the deletion of
   link(1,3) would leave hop(1,4) standing after its last derivation is
   gone. *)
let unmarked_dred_snapshot_rederived () =
  with_dir (fun dir ->
      let vm =
        Vm.create ~algorithm:Vm.Dred ~durable:dir ~facts:diamond_facts
          (Parser.parse_rules "hop(X, Y) :- link(X, Z), link(Z, Y).")
      in
      ignore (Vm.delete vm "link" [ diamond_link (1, 2) ]);
      Vm.compact vm;
      Vm.close_store vm;
      rewrite_as_version_1 (Store.snapshot_file dir);
      let vm, recovery = Vm.open_durable dir in
      check_mark "an unmarked image" None recovery.Store.counts;
      ignore (Vm.delete vm "link" [ diamond_link (1, 3) ]);
      Alcotest.(check bool) "hop(1,4) gone" false
        (Relation.mem (Vm.relation vm "hop") (diamond_link (1, 4)));
      Alcotest.(check (result unit string)) "audit, with counts" (Ok ()) (Vm.audit vm);
      Vm.close_store vm)

(* The default Auto once resolved a recursive program to DRed, which
   stores the closure as a set with count 1: such a version-1 image must
   be re-derived under counted DRed, where path(1,4)'s two derivations
   give it count 2 and deleting link(1,2) leaves it standing. *)
let unmarked_recursive_snapshot_rederived () =
  with_dir (fun dir ->
      let program = Program.make (Parser.parse_rules Programs.transitive_closure) in
      let db = Database.create ~semantics:Database.Set_semantics program in
      List.iter (fun (p, tuples) -> Database.load db p tuples) diamond_facts;
      Seminaive.evaluate db;
      Alcotest.(check int) "the image holds path(1,4) with count 1" 1
        (Relation.count (Database.relation db "path") (diamond_link (1, 4)));
      Store.close (Store.initialize ~counts:Snapshot.Exact ~dir db);
      rewrite_as_version_1 (Store.snapshot_file dir);
      let vm, recovery = Vm.open_durable dir in
      check_mark "an unmarked image" None recovery.Store.counts;
      Alcotest.(check string) "Auto resolves to counted DRed" "dred-counted"
        (Vm.algorithm_name (Vm.resolve vm));
      Alcotest.(check int) "re-derived: path(1,4) has two derivations" 2
        (Relation.count (Vm.relation vm "path") (diamond_link (1, 4)));
      ignore (Vm.delete vm "link" [ diamond_link (1, 2) ]);
      Alcotest.(check bool) "path(1,4) present" true
        (Relation.mem (Vm.relation vm "path") (diamond_link (1, 4)));
      Alcotest.(check (result unit string)) "audit, with counts" (Ok ()) (Vm.audit vm);
      Vm.close_store vm)

(* A re-derived image is written back once.  A version-1 store with a
   one-record log: the first open re-derives the views, replays the
   record and compacts, leaving a version-2 image marked exact and an
   empty log; the second open re-derives nothing and replays nothing,
   and lands on the same state. *)
let rederived_image_written_back () =
  with_dir (fun dir ->
      let vm =
        Vm.create ~durable:dir ~facts:diamond_facts
          (Parser.parse_rules "hop(X, Y) :- link(X, Z), link(Z, Y).")
      in
      ignore (Vm.delete vm "link" [ diamond_link (1, 2) ]);
      Vm.close_store vm;
      rewrite_as_version_1 (Store.snapshot_file dir);
      let module Trace = Ivm_obs.Trace in
      let opened () =
        Trace.enable ~capacity:4096 ();
        let vm, recovery =
          Fun.protect
            ~finally:(fun () -> ignore (Trace.disable ()))
            (fun () -> Vm.open_durable dir)
        in
        let evaluations =
          List.length
            (List.filter
               (fun (e : Trace.event) -> e.Trace.name = "seminaive.evaluate")
               (Trace.drain ()))
        in
        Alcotest.(check (result unit string)) "audit, with counts" (Ok ()) (Vm.audit vm);
        let state = canonical_dump (Vm.database vm) in
        Vm.close_store vm;
        (recovery, evaluations, state)
      in
      let first, evaluated, state = opened () in
      check_mark "first open: an unmarked image" None first.Store.counts;
      Alcotest.(check int) "first open: the record replayed" 1
        (List.length first.Store.replayed);
      Alcotest.(check int) "first open: re-derived once" 1 evaluated;
      let bytes = In_channel.with_open_bin (Store.snapshot_file dir) In_channel.input_all in
      Alcotest.(check int) "written back as version 2" 2 (String.get_int32_le bytes 8 |> Int32.to_int);
      Alcotest.(check int) "written back marked exact" 0 (Char.code bytes.[12] land 6);
      let second, evaluated, state' = opened () in
      check_mark "second open: the written-back image" (Some Snapshot.Exact)
        second.Store.counts;
      Alcotest.(check int) "second open: nothing replayed" 0
        (List.length second.Store.replayed);
      Alcotest.(check int) "second open: nothing re-derived" 0 evaluated;
      Alcotest.(check string) "same state" state state')

(* ------------------------------------------------------------------ *)
(* Log-tail replay: net under DRed/Recompute, per record under Counting  *)
(* ------------------------------------------------------------------ *)

let replay_source =
  {|
    link(a, b). link(b, c). link(c, d).
    hop(X, Y) :- link(X, Z), link(Z, Y).
  |}

let batches_total algorithm =
  Ivm_obs.Metrics.counter_value
    (Ivm_obs.Metrics.counter
       ~labels:[ ("algorithm", algorithm) ]
       "ivm_maintain_batches_total")

(** [f ()] and how many batches each named algorithm maintained in it. *)
let counting_batches algorithms f =
  let before = List.map batches_total algorithms in
  let r = f () in
  (r, List.map2 (fun a b -> batches_total a - b) algorithms before)

(** A store over [replay_source] whose log holds [records], written
    straight to the WAL (so nothing validates them on the way in). *)
let hand_written_store ~dir records =
  Vm.close_store (Vm.of_source ~durable:dir replay_source);
  let w, _ = Wal.open_append ~path:(Store.wal_file dir) in
  List.iteri
    (fun i entries ->
      Wal.append ~sync:false w ~seq:(i + 1) [ ("link", rel_of_pairs entries) ])
    records;
  Wal.close w

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Record 3 deletes link(a, b), which the snapshot holds but record 1
   already deleted: only a check against the prefix state catches it (the
   net set, -2 copies of a stored tuple, would collapse to one deletion).
   Net replay (DRed) and per-record replay (Counting) must reject it with
   the same message, leave the store's files as they were, and close the
   log they opened. *)
let invalid_record_rejected_per_prefix () =
  with_dir (fun dir ->
      hand_written_store ~dir [ "ab -1"; "bd"; "ab -1; ca" ];
      let files () =
        List.map
          (fun f -> In_channel.with_open_bin f In_channel.input_all)
          [ Store.snapshot_file dir; Store.wal_file dir ]
      in
      let before = files () in
      let reject algorithm =
        let fds = open_fds () in
        match Vm.open_durable ~algorithm dir with
        | vm, _ ->
          Vm.close_store vm;
          Alcotest.failf "%s replayed an invalid record" (Vm.algorithm_name algorithm)
        | exception Changes.Invalid_changes msg ->
          let name = Vm.algorithm_name algorithm in
          Alcotest.(check int) (name ^ ": no descriptor leaked") fds (open_fds ());
          Alcotest.(check bool) (name ^ ": store files untouched") true
            (files () = before);
          msg
      in
      let dred = reject Vm.Dred and counting = reject Vm.Counting in
      Alcotest.(check string) "same message on both paths" counting dred;
      Alcotest.(check string) "names the record's deletion"
        "deleting link(a, b) which is not in the database" dred)

(* A valid tail: DRed maintains it once, Counting once per record, and
   both land on the state the records leave. *)
let replay_batches_per_algorithm () =
  with_dir (fun dir ->
      hand_written_store ~dir [ "ab -1"; "bd"; "ab; bd -1"; "ca" ];
      let module Trace = Ivm_obs.Trace in
      let reopen algorithm =
        Trace.enable ~capacity:4096 ();
        let (vm, recovery), counts =
          Fun.protect
            ~finally:(fun () -> ignore (Trace.disable ()))
            (fun () ->
              counting_batches [ "dred"; "counting" ] (fun () ->
                  Vm.open_durable ~algorithm dir))
        in
        Alcotest.(check int) "four records replayed" 4
          (List.length recovery.Store.replayed);
        Vm.close_store vm;
        let replay_args =
          List.filter_map
            (fun (e : Trace.event) ->
              if e.Trace.name = "store.replay" then Some e.Trace.args else None)
            (Trace.drain ())
        in
        (canonical_dump (Vm.database vm), counts, replay_args)
      in
      let dred_state, dred, dred_span = reopen Vm.Dred in
      let counting_state, counting, counting_span = reopen Vm.Counting in
      Alcotest.(check (list int)) "DRed: one batch per tail" [ 1; 0 ] dred;
      Alcotest.(check (list int)) "Counting: one batch per record" [ 0; 4 ] counting;
      let span = Alcotest.(list (list (pair string string))) in
      (* explicit algorithms keep their replay whatever the tail's net
         ratio (+ca over the three stored links) *)
      Alcotest.check span "DRed's replay span: net, one tuple (+ca) left"
        [ [ ("records", "4"); ("mode", "net"); ("net_tuples", "1"); ("net_ratio", "0.3333") ] ]
        dred_span;
      Alcotest.check span "Counting's replay span: per record"
        [ [ ("records", "4"); ("mode", "per_record"); ("net_tuples", "1");
            ("net_ratio", "0.3333") ] ]
        counting_span;
      Alcotest.(check string) "same recovered views" counting_state dred_state;
      Alcotest.(check string) "hop after the tail"
        "hop = {a,c; b,a; b,d; c,b}" dred_state)

(** Recoveries so far per mode: the [ivm_recovery_replays_total{mode}]
    counters, as [recompute; net; per_record]. *)
let replay_modes = [ "recompute"; "net"; "per_record" ]

let modes_total () =
  List.map
    (fun mode ->
      Ivm_obs.Metrics.counter_value
        (Ivm_obs.Metrics.counter ~labels:[ ("mode", mode) ] "ivm_recovery_replays_total"))
    replay_modes

(** The one mode [f]'s recovery counted, and [f ()]. *)
let recovery_mode f =
  let before = modes_total () in
  let r = f () in
  let moved =
    List.filter_map
      (fun (mode, (a, b)) -> if a > b then Some mode else None)
      (List.combine replay_modes (List.combine (modes_total ()) before))
  in
  (r, String.concat "+" moved)

(** The mode the recovery rule predicts for a tail of [records] over an
    [Exact] image holding [db], with the net base change it folds to:
    [recompute] when the net ratio (Σ|net Δ| / Σ|stored| over the changed
    base relations) reaches 0.35 with a nonrecursive unit in the program,
    0.07 with only recursive ones, under [Auto], or for any net change
    under [Recompute]; otherwise [net] for the DRed resolutions and
    [Recompute], [per_record] for Counting. *)
let predicted_mode ~algorithm db records =
  let program = Database.program db in
  let pending = Changes.collector () in
  List.iter
    (fun r ->
      List.iter
        (fun (p, d) -> Changes.absorb pending p d)
        (Changes.normalize_base ~pending db r))
    records;
  let net = Changes.collected pending in
  let stored =
    List.fold_left (fun acc (p, _) -> acc + Relation.cardinal (Database.relation db p)) 0 net
  in
  let ratio = float_of_int (Changes.total_tuples net) /. float_of_int (max 1 stored) in
  let largest =
    List.fold_left
      (fun acc u -> max acc (if Program.recursive program (List.hd u) then 0.07 else 0.35))
      0. (Program.recursive_units program)
  in
  let at =
    match algorithm with Vm.Auto -> Some largest | Vm.Recompute -> Some 0. | _ -> None
  in
  let mode =
    match at with
    | Some at when net <> [] && ratio >= at -> "recompute"
    | _ ->
      if algorithm = Vm.Counting
         || (algorithm = Vm.Auto && Program.nonrecursive program)
      then "per_record"
      else "net"
  in
  (mode, net)

(** [changes] with every count negated: applied after [changes], the
    pair cancels in the log's net set. *)
let inverse (changes : Changes.t) : Changes.t =
  List.map (fun (p, r) -> (p, Relation.negate r)) changes

(* Coalesced recovery = per-record replay of the same log through [apply]
   on a manager loaded from the same snapshot, for DRed, counted DRed,
   Recompute and Auto over the differential suite's random stratified
   programs.  The log mixes random batches with insert/delete pairs that
   cancel across records (an inverse that a later batch made invalid is
   refused by [apply] and never logged); a long tail adds 24 more random
   batches, so the net tail crosses Auto's recovery threshold and Auto
   evaluates the views from the recovered base relations.  The recovery
   counts the mode {!predicted_mode} predicts, and maintains as many
   batches as that mode runs: none when it recomputes from base, one
   for a non-empty net batch, one per record under Counting.  Every
   algorithm but explicit DRed keeps exact counts — Auto resolves to
   counted DRed on a recursive program and to Counting on a
   nonrecursive one — so their dumps must match count for count.  Explicit DRed keeps tuple sets exact but not derivation
   counts (see [View_manager.set_algorithm]): its counts depend on where
   batch boundaries fall, so it is compared as sets, the contract its
   audit checks.  CI runs the whole suite at IVM_DOMAINS 1 and 4. *)
let net_replay_equals_per_record =
  let algorithms = [ Vm.Dred; Vm.Dred_counted; Vm.Recompute; Vm.Auto ] in
  q "net replay = per-record replay (DRed, counted DRed, Recompute, Auto; random programs, long tails)"
    (QCheck.triple Test_differential.arb_program
       (QCheck.make
          ~print:(fun a -> Vm.algorithm_name a)
          (QCheck.Gen.oneofl algorithms))
       (QCheck.make ~print:(Printf.sprintf "long tail: %b") QCheck.Gen.bool))
    (fun ((seed, src), algorithm, long_tail) ->
      with_dir (fun dir ->
          let rng = Prng.create seed in
          let nodes = 8 in
          let vm =
            Vm.create ~algorithm ~durable:dir
              ~facts:[ ("link", Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges:14)) ]
              (Parser.parse_rules src)
          in
          let apply c = try ignore (Vm.apply vm c) with Changes.Invalid_changes _ -> () in
          let random () =
            Update_gen.mixed rng (Vm.database vm) "link" ~nodes
              ~dels:(Prng.int rng 3) ~ins:(Prng.int rng 3)
          in
          let swap = random () in
          apply swap;
          apply (random ());
          apply (inverse swap);
          let fresh = Update_gen.edge_insertions rng (Vm.database vm) "link" ~nodes 1 in
          apply fresh;
          apply (random ());
          apply (inverse fresh);
          if long_tail then for _ = 1 to 24 do apply (random ()) done;
          Vm.close_store vm;
          let name = Vm.algorithm_name (Vm.resolve vm) in
          let ((recovered, recovery), counts), mode =
            recovery_mode (fun () ->
                counting_batches [ name ] (fun () -> Vm.open_durable ~algorithm dir))
          in
          Vm.close_store recovered;
          let db, _, _ = Snapshot.load ~path:(Store.snapshot_file dir) in
          let records = recovery.Store.replayed in
          let predicted, net = predicted_mode ~algorithm db records in
          let oracle = Vm.of_database ~algorithm db in
          List.iter (fun c -> ignore (Vm.apply oracle c)) records;
          let a = Vm.database oracle and b = Vm.database recovered in
          let same =
            Database.agree a b
            && (algorithm = Vm.Dred || String.equal (canonical_dump a) (canonical_dump b))
          in
          let batches =
            match mode with
            | "recompute" -> 0
            | "per_record" -> List.length records
            | _ -> if net = [] then 0 else 1
          in
          if mode <> predicted then
            QCheck.Test.fail_reportf "recovered by %s, the rule predicts %s" mode predicted;
          records <> [] && counts = [ batches ] && same))

(* perfbench's closure_dred tail in small: a closure over a layered DAG
   (6 layers of 8 nodes, two successors each) takes 80 live one-edge
   swaps, each under Auto's DRed threshold (2/96 = 0.02), so each runs
   DRed's phases.  Recovery folds them into one net change far above it
   and evaluates [path] once from the recovered [link]: no unit
   decision at all.  The recovered views pass the audit and equal
   per-record replay of the same log through explicit DRed, as sets
   (the contract DRed's audit checks). *)
let closure_tail_reevaluated () =
  with_dir (fun dir ->
      let layers = 6 and width = 8 in
      let rng = Prng.create 7 in
      let vm =
        Vm.create ~durable:dir
          ~facts:
            [ ("link", Graph_gen.tuples (Graph_gen.layered_dag rng ~layers ~width ~out_degree:2)) ]
          (Parser.parse_rules Programs.transitive_closure)
      in
      let swap () =
        let db = Vm.database vm in
        let stored = Database.relation db "link" in
        let rec fresh () =
          let l = Prng.int rng (layers - 1) in
          let e =
            Graph_gen.edge_tuple
              ((l * width) + Prng.int rng width, ((l + 1) * width) + Prng.int rng width)
          in
          if Relation.mem stored e then fresh () else e
        in
        Changes.merge
          (Update_gen.deletions rng db "link" 1)
          (Changes.insertions (Vm.program vm) "link" [ fresh () ])
      in
      let incremental = choice_total "incremental" in
      for _ = 1 to 80 do ignore (Vm.apply vm (swap ())) done;
      Alcotest.(check int) "every live swap ran DRed's phases" 80
        (choice_total "incremental" - incremental);
      Vm.close_store vm;
      let before = List.map choice_total [ "incremental"; "reevaluate" ] in
      let (recovered, recovery), mode = recovery_mode (fun () -> Vm.open_durable dir) in
      Vm.close_store recovered;
      Alcotest.(check string) "recovery evaluated the views from base" "recompute" mode;
      Alcotest.(check (list int)) "no unit decision" [ 0; 0 ]
        (List.map2 (fun c b -> choice_total c - b) [ "incremental"; "reevaluate" ] before);
      Alcotest.(check (result unit string)) "audit" (Ok ()) (Vm.audit recovered);
      let db, _, _ = Snapshot.load ~path:(Store.snapshot_file dir) in
      let oracle = Vm.of_database ~algorithm:Vm.Dred db in
      List.iter (fun c -> ignore (Vm.apply oracle c)) recovery.Store.replayed;
      Alcotest.(check int) "the whole tail replayed" 80 (List.length recovery.Store.replayed);
      Alcotest.(check bool) "equals per-record replay as sets" true
        (Database.agree (Vm.database oracle) (Vm.database recovered)))

(* Recovery from the base relations = the replay it replaces, over the
   differential suite's random programs (GROUPBY views among them) under
   Auto, with random DISTINCT marks, with or without incremental
   aggregates, under duplicate semantics where the program allows it,
   over 40 links and a tail of 1–2 random batches (mostly under the
   threshold) or 15–30 (over it),
   from an exact image or an unmarked, stale one.  The oracle is the
   path recovery took before it could evaluate from base: the snapshot's
   views (re-derived when the image is stale), then the tail record by
   record through [apply].  Recovery must count the mode the rule
   predicts — [recompute] for a stale image — and land on the oracle's
   state and the live session's, count for count, with the same
   aggregate-index signatures and DISTINCT marks. *)
let recovery_from_base_equals_replay =
  q "recovery from base = per-record replay (GROUPBY, DISTINCT, stale and exact images)"
    (QCheck.pair Test_differential.arb_program
       (QCheck.make
          ~print:(fun (dup, (stale, (aggs, tail))) ->
            Printf.sprintf "duplicates %b, stale %b, incremental aggregates %b, %d batches"
              dup stale aggs tail)
          QCheck.Gen.(
            pair bool (pair bool (pair bool (oneof [ int_range 1 2; int_range 15 30 ]))))))
    (fun ((seed, src), (duplicates, (stale, (aggs, tail)))) ->
      with_dir (fun dir ->
          let rng = Prng.create seed in
          let nodes = 12 in
          let rules = Parser.parse_rules src in
          let program = Program.make rules in
          let semantics =
            if duplicates && Program.nonrecursive program then Database.Duplicate_semantics
            else Database.Set_semantics
          in
          let distinct =
            List.filter (fun _ -> Prng.int rng 2 = 0) (Program.derived_preds program)
          in
          let vm =
            Vm.create ~semantics ~distinct ~durable:dir
              ~facts:[ ("link", Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges:40)) ]
              rules
          in
          if aggs then Vm.enable_incremental_aggregates vm;
          for _ = 1 to tail do
            let c =
              Update_gen.mixed rng (Vm.database vm) "link" ~nodes
                ~dels:(Prng.int rng 3) ~ins:(Prng.int rng 3)
            in
            try ignore (Vm.apply vm c) with Changes.Invalid_changes _ -> ()
          done;
          let live = canonical_dump (Vm.database vm) in
          let live_sigs = Database.agg_signatures (Vm.database vm) in
          Vm.close_store vm;
          if stale then rewrite_as_version_1 (Store.snapshot_file dir);
          let image, store, recovery = Store.open_ ~dir in
          Store.close store;
          Lazy.force image.Snapshot.views;
          let db = image.Snapshot.db and records = recovery.Store.replayed in
          let predicted =
            if stale then "recompute" else fst (predicted_mode ~algorithm:Vm.Auto db records)
          in
          if stale then Ivm.Recompute.evaluate db;
          let oracle = Vm.of_database db in
          if aggs then Vm.enable_incremental_aggregates oracle;
          List.iter (fun c -> ignore (Vm.apply oracle c)) records;
          let (recovered, _), mode = recovery_mode (fun () -> Vm.open_durable dir) in
          Vm.close_store recovered;
          let a = Vm.database oracle and b = Vm.database recovered in
          if mode <> predicted then
            QCheck.Test.fail_reportf "recovered by %s, the rule predicts %s" mode predicted;
          if canonical_dump b <> canonical_dump a then
            QCheck.Test.fail_reportf "recovered:\n%s\nreplayed:\n%s" (canonical_dump b)
              (canonical_dump a);
          canonical_dump b = live
          && Database.agg_signatures b = Database.agg_signatures a
          && Database.agg_signatures b = live_sigs
          && Database.distinct_views b = Database.distinct_views a
          && Database.distinct_views b = List.sort String.compare distinct
          && Vm.audit recovered = Ok ()))

(** A durable hop store over a 30-node path, with [k] single-link
    insertions in its log: 1 is far under Auto's 0.35 for Counting, 20
    far over it. *)
let hop_store ~dir k =
  let chain = List.init 30 (fun i -> diamond_link (i, i + 1)) in
  let vm =
    Vm.create ~durable:dir ~facts:[ ("link", chain) ]
      (Parser.parse_rules "hop(X, Y) :- link(X, Z), link(Z, Y).")
  in
  for i = 1 to k do
    ignore (Vm.insert vm "link" [ diamond_link (100 + i, i) ])
  done;
  let state = canonical_dump (Vm.database vm) in
  Vm.close_store vm;
  state

(* The image comes back from [Store.open_] with its views undecoded, and
   forcing them gives what [Snapshot.load] returns.  Recovery from base
   never forces them (no [snapshot.decode_views] span); a short tail,
   replayed into the snapshot's views, forces them once. *)
let recovery_from_base_decodes_no_view () =
  let opened ~dir =
    let module Trace = Ivm_obs.Trace in
    Trace.enable ~capacity:4096 ();
    let (vm, _), mode =
      Fun.protect
        ~finally:(fun () -> ignore (Trace.disable ()))
        (fun () -> recovery_mode (fun () -> Vm.open_durable dir))
    in
    let decoded =
      List.length
        (List.filter
           (fun (e : Trace.event) -> e.Trace.name = "snapshot.decode_views")
           (Trace.drain ()))
    in
    let state = canonical_dump (Vm.database vm) in
    Vm.close_store vm;
    (mode, decoded, state)
  in
  with_dir (fun dir ->
      let live = hop_store ~dir 20 in
      let image, store, _ = Store.open_ ~dir in
      Store.close store;
      Alcotest.(check int) "hop not decoded by open" 0
        (Relation.cardinal (Database.relation image.Snapshot.db "hop"));
      Alcotest.(check int) "link decoded by open" 30
        (Relation.cardinal (Database.relation image.Snapshot.db "link"));
      Lazy.force image.Snapshot.views;
      let db, _, _ = Snapshot.load ~path:(Store.snapshot_file dir) in
      Alcotest.(check string) "forced views = the loaded image's" (canonical_dump db)
        (canonical_dump image.Snapshot.db);
      let mode, decoded, state = opened ~dir in
      Alcotest.(check string) "a long tail: from base" "recompute" mode;
      Alcotest.(check int) "a long tail: no view decoded" 0 decoded;
      Alcotest.(check string) "a long tail: the live state" live state);
  with_dir (fun dir ->
      let live = hop_store ~dir 1 in
      let mode, decoded, state = opened ~dir in
      Alcotest.(check string) "a short tail: per record" "per_record" mode;
      Alcotest.(check int) "a short tail: the views decoded once" 1 decoded;
      Alcotest.(check string) "a short tail: the live state" live state)

(* A view region that is structurally bad under a valid CRC — a bad value
   tag in [hop]'s first row, or a row count its bytes cannot hold — is
   refused by [Snapshot.decode], by [Store.open_], and by a recovery that
   would evaluate the views from base and never decode [hop]. *)
let bad_view_region_refused () =
  with_dir (fun dir ->
      ignore (hop_store ~dir 20);
      let path = Store.snapshot_file dir in
      let image = In_channel.with_open_bin path In_channel.input_all in
      (* [hop]'s relation: its name (u32 length 3), arity, row count, rows *)
      let name = "\003\000\000\000hop" in
      let rec find i =
        if String.sub image i (String.length name) = name then i else find (i + 1)
      in
      let at = find 0 + String.length name in
      let broken ~offset ~set =
        let b = Bytes.of_string image in
        set b (at + offset);
        let n = Bytes.length b in
        Bytes.set_int32_le b (n - 4) (Crc32.update_bytes 0l b 0 (n - 4));
        Bytes.unsafe_to_string b
      in
      List.iter
        (fun (what, bytes) ->
          (match Snapshot.decode bytes with
          | _ -> Alcotest.failf "%s: decoded" what
          | exception Snapshot.Corrupt _ -> ());
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
          (match Store.open_ ~dir with
          | _ -> Alcotest.failf "%s: Store.open_ accepted it" what
          | exception Store.Corrupt _ -> ());
          match Vm.open_durable dir with
          | _ -> Alcotest.failf "%s: recovered" what
          | exception Store.Corrupt _ -> ())
        [
          ("a bad value tag", broken ~offset:8 ~set:(fun b i -> Bytes.set_uint8 b i 9));
          ( "an impossible row count",
            broken ~offset:4 ~set:(fun b i -> Bytes.set_int32_le b i 0x7FFFFFFFl) );
        ])

let suite =
  [
    quick "crc32 check values" crc_check_values;
    quick "wire: values round-trip" wire_value_roundtrip;
    quick "wire: relations round-trip" wire_relation_roundtrip;
    quick "wire: truncation detected" wire_rejects_truncation;
    quick "wire: hostile row count is Corrupt, not an allocation"
      wire_rejects_hostile_row_count;
    crc_matches_oracle;
    quick "format: golden frame bytes" golden_frame;
    quick "format: golden WAL record frame" golden_wal_record;
    quick "wire: a block's size and write passes must agree" writer_checks_size;
    quick "format: golden snapshot digest" golden_snapshot;
    quick "wire: CRC, frame and integer codecs allocate per call, not per byte"
      allocation_guards;
    quick "snapshot: round-trip" snapshot_roundtrip;
    quick "snapshot: the counts mark's bits per version" snapshot_mark_bits;
    quick "snapshot: duplicate semantics" snapshot_duplicate_semantics;
    quick "snapshot: aggregate indexes" snapshot_agg_indexes;
    quick "snapshot: corruption detected" snapshot_detects_corruption;
    quick "store: a directory fsync reports a missing directory" fsync_dir_reports_errors;
    quick "store: initialize twice refused" initialize_twice_refused;
    quick "store: open missing refused" open_missing_refused;
    quick "store: compaction crash skips covered records"
      compaction_crash_skips_covered_records;
    quick "manager: rule change survives reopen" reopen_after_rule_change;
    quick "manager: compact then reopen" compact_then_reopen;
    quick "manager: a float AVG insert audits and reopens under every algorithm"
      float_avg_insert_reopens;
    quick "manager: a DRed snapshot's stale counts are re-derived under counting"
      (stale_counts_rederived ~view:"hop" ~before:[ (1, 2) ] ~after:[ (1, 3) ]
         ~present:false
         "hop(X, Y) :- link(X, Z), link(Z, Y).");
    quick "manager: a DRed snapshot's stale counts are re-derived under counted DRed"
      (stale_counts_rederived ~view:"path" ~before:[] ~after:[ (1, 2) ] ~present:true
         Programs.transitive_closure);
    quick "manager: an unmarked DRed snapshot is re-derived under counting"
      unmarked_dred_snapshot_rederived;
    quick "manager: an unmarked recursive snapshot is re-derived under counted DRed"
      unmarked_recursive_snapshot_rederived;
    quick "manager: a re-derived image is written back once" rederived_image_written_back;
    crash_recovery_prop;
    corruption_recovery_prop;
    quick "manager: an invalid replayed record fails against its prefix, closing the log"
      invalid_record_rejected_per_prefix;
    quick "manager: DRed replays a tail once, Counting once per record"
      replay_batches_per_algorithm;
    net_replay_equals_per_record;
    recovery_from_base_equals_replay;
    quick "manager: recovery from base decodes no view of the snapshot"
      recovery_from_base_decodes_no_view;
    quick "manager: a bad view region under a valid CRC is refused at open"
      bad_view_region_refused;
    quick "manager: a long closure tail recovers by evaluating the views from base"
      closure_tail_reevaluated;
  ]
