module Wire = Ivm_wire.Wire
module Crc32 = Ivm_wire.Crc32
module Frame = Ivm_wire.Frame
module Relation = Ivm_relation.Relation
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace

type changes = (string * Relation.t) list

exception Corrupt of string

let magic = "IVMWAL01"
let version = 1
let header_size = String.length magic + 4

let bytes_written_c = Metrics.counter "ivm_store_bytes_written_total"
let records_c = Metrics.counter "ivm_store_wal_records_total"
let wal_bytes_g = Metrics.gauge "ivm_store_wal_bytes"

(* ---------------- payload codec ---------------- *)

(* A record is the batch's sequence number and its changes, framed;
   sized first and written once, frame header included. *)
let record_frame ~seq (changes : changes) : string =
  Frame.build (8 + Wire.changes_size changes) (fun w ->
      Wire.put_i64 w seq;
      Wire.put_changes w changes)

let decode_payload (s : string) : int * changes =
  let r = Wire.reader s in
  let seq = Wire.get_i64 r in
  let changes = Wire.get_changes r in
  if Wire.remaining r <> 0 then
    Wire.corrupt r (Printf.sprintf "%d trailing bytes in record" (Wire.remaining r));
  (seq, changes)

(* ---------------- scanning ---------------- *)

type record = { seq : int; changes : changes; end_offset : int }

type tail = {
  records : record list;
  valid_end : int;
  dropped_bytes : int;
  damage : string option;
}

let load ~path : tail =
  if not (Sys.file_exists path) then
    { records = []; valid_end = header_size; dropped_bytes = 0; damage = None }
  else begin
    let s = In_channel.with_open_bin path In_channel.input_all in
    let n = String.length s in
    if n < header_size || String.sub s 0 (String.length magic) <> magic then
      raise (Corrupt (Printf.sprintf "%s: bad log header" path));
    let v = Int32.to_int (String.get_int32_le s (String.length magic)) in
    if v <> version then
      raise (Corrupt (Printf.sprintf "%s: unsupported log version %d" path v));
    let rec scan pos acc =
      let remaining = n - pos in
      if remaining = 0 then (List.rev acc, pos, None)
      else if remaining < 8 then
        (List.rev acc, pos, Some (Printf.sprintf "torn frame header (%d bytes)" remaining))
      else begin
        let len = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF in
        let stored_crc = String.get_int32_le s (pos + 4) in
        if len > remaining - 8 then
          ( List.rev acc,
            pos,
            Some
              (Printf.sprintf "torn record (frame wants %d bytes, %d in file)" len
                 (remaining - 8)) )
        else begin
          let computed = Crc32.update 0l s (pos + 8) len in
          if computed <> stored_crc then
            ( List.rev acc,
              pos,
              Some
                (Printf.sprintf "CRC mismatch (stored %08lx, computed %08lx)"
                   stored_crc computed) )
          else
            match decode_payload (String.sub s (pos + 8) len) with
            | seq, changes ->
              scan (pos + 8 + len) ({ seq; changes; end_offset = pos + 8 + len } :: acc)
            | exception Wire.Corrupt msg ->
              (List.rev acc, pos, Some ("undecodable record: " ^ msg))
        end
      end
    in
    let records, valid_end, damage = scan header_size [] in
    { records; valid_end; dropped_bytes = n - valid_end; damage }
  end

(* ---------------- appending ---------------- *)

type t = {
  wpath : string;
  mutable oc : Out_channel.t;
  mutable size : int;
  mutable count : int;
}

let fsync_oc = Fsutil.fsync_out_channel

let open_raw path =
  Out_channel.open_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path

let open_append ~path : t * tail =
  let fresh = not (Sys.file_exists path) in
  let tail = load ~path in
  if tail.dropped_bytes > 0 then Unix.truncate path tail.valid_end;
  let oc = open_raw path in
  if fresh then begin
    Out_channel.output_string oc magic;
    Out_channel.output_bytes oc (Wire.block 4 (fun w -> Wire.put_u32 w version));
    fsync_oc oc;
    Fsutil.fsync_dir (Filename.dirname path)
  end;
  let t = { wpath = path; oc; size = tail.valid_end; count = List.length tail.records } in
  Metrics.set wal_bytes_g (float_of_int t.size);
  (t, tail)

let fsyncs_c = Metrics.counter "ivm_store_wal_fsyncs_total"

let sync t =
  fsync_oc t.oc;
  Metrics.inc fsyncs_c

(* [~sync:false] is the group-commit half: the frame is written to the
   OS but not forced to disk, so a caller can append a whole queue of
   batches and pay one fsync ({!sync}) for all of them.  Until that
   [sync] returns, the records are not durable — the caller must not
   acknowledge or publish them (ARCHITECTURE.md invariant 11). *)
let append ?(sync = true) t ~seq (changes : changes) : unit =
  Trace.span "store.append" (fun () ->
      let frame = record_frame ~seq changes in
      Out_channel.output_string t.oc frame;
      if sync then (
        fsync_oc t.oc;
        Metrics.inc fsyncs_c);
      t.size <- t.size + String.length frame;
      t.count <- t.count + 1;
      Metrics.add bytes_written_c (String.length frame);
      Metrics.inc records_c;
      Metrics.set wal_bytes_g (float_of_int t.size))

let reset t =
  Out_channel.close t.oc;
  Unix.truncate t.wpath header_size;
  t.oc <- open_raw t.wpath;
  fsync_oc t.oc;
  t.size <- header_size;
  t.count <- 0;
  Metrics.set wal_bytes_g (float_of_int t.size)

let size t = t.size
let record_count t = t.count
let path t = t.wpath
let close t = Out_channel.close t.oc
