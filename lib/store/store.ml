module Database = Ivm_eval.Database
module Metrics = Ivm_obs.Metrics

type changes = Wal.changes

exception Corrupt of string

type t = {
  sdir : string;
  wal : Wal.t;
  mutable last_seq : int;
  mutable snap_seq : int;
  mutable snap_bytes : int;
}

type recovery = {
  snapshot_seq : int;
  replayed : changes list;
  skipped_records : int;
  truncated_bytes : int;
  damage : string option;
  counts : Snapshot.counts option;
}

type status = {
  dir : string;
  seq : int;
  snapshot_seq : int;
  snapshot_bytes : int;
  wal_records : int;
  wal_bytes : int;
}

let snapshot_file dir = Filename.concat dir "snapshot.ivm"
let wal_file dir = Filename.concat dir "wal.ivm"
let exists dir = Sys.file_exists (snapshot_file dir)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let initialize ~counts ~dir (db : Database.t) : t =
  if exists dir then
    invalid_arg (Printf.sprintf "Store.initialize: %s is already a store" dir);
  mkdir_p dir;
  let snapshot_bytes = Snapshot.save ~counts ~path:(snapshot_file dir) ~seq:0 db in
  (* A stale log without a snapshot means a half-deleted store; start clean. *)
  if Sys.file_exists (wal_file dir) then Sys.remove (wal_file dir);
  let wal, _tail = Wal.open_append ~path:(wal_file dir) in
  { sdir = dir; wal; last_seq = 0; snap_seq = 0; snap_bytes = snapshot_bytes }

let open_ ~dir : Snapshot.image * t * recovery =
  let snap_path = snapshot_file dir in
  if not (Sys.file_exists snap_path) then
    raise (Corrupt (Printf.sprintf "%s: no snapshot (not a store?)" dir));
  match
    let image = Snapshot.load_image ~path:snap_path in
    let wal, tail = Wal.open_append ~path:(wal_file dir) in
    (image, wal, tail)
  with
  | exception Snapshot.Corrupt msg -> raise (Corrupt msg)
  | exception Wal.Corrupt msg -> raise (Corrupt msg)
  | image, wal, tail ->
    let snapshot_seq = image.Snapshot.seq in
    (* A crash between snapshot rename and log reset leaves records the
       snapshot already covers; skip them by sequence number. *)
    let skipped, live =
      List.partition (fun (r : Wal.record) -> r.Wal.seq <= snapshot_seq) tail.Wal.records
    in
    let seq =
      List.fold_left (fun acc (r : Wal.record) -> max acc r.Wal.seq) snapshot_seq
        tail.Wal.records
    in
    let t =
      {
        sdir = dir;
        wal;
        last_seq = seq;
        snap_seq = snapshot_seq;
        snap_bytes =
          (try (Unix.stat snap_path).Unix.st_size with Unix.Unix_error _ -> 0);
      }
    in
    let recovery =
      {
        snapshot_seq;
        replayed = List.map (fun (r : Wal.record) -> r.Wal.changes) live;
        skipped_records = List.length skipped;
        truncated_bytes = tail.Wal.dropped_bytes;
        damage = tail.Wal.damage;
        counts = image.Snapshot.counts;
      }
    in
    (image, t, recovery)

let append ?sync:(s = true) t (changes : changes) : unit =
  t.last_seq <- t.last_seq + 1;
  Wal.append ~sync:s t.wal ~seq:t.last_seq changes

let sync t = Wal.sync t.wal

let compact ~counts t (db : Database.t) : unit =
  t.snap_bytes <-
    Snapshot.save ~counts ~path:(snapshot_file t.sdir) ~seq:t.last_seq db;
  Wal.reset t.wal;
  t.snap_seq <- t.last_seq

let status t : status =
  {
    dir = t.sdir;
    seq = t.last_seq;
    snapshot_seq = t.snap_seq;
    snapshot_bytes = t.snap_bytes;
    wal_records = Wal.record_count t.wal;
    wal_bytes = Wal.size t.wal;
  }

let dir t = t.sdir
let close t = Wal.close t.wal

let pp_recovery ppf (r : recovery) =
  Format.fprintf ppf "snapshot seq %d, %d record%s replayed" r.snapshot_seq
    (List.length r.replayed)
    (if List.length r.replayed = 1 then "" else "s");
  if r.skipped_records > 0 then
    Format.fprintf ppf ", %d already-covered record%s skipped" r.skipped_records
      (if r.skipped_records = 1 then "" else "s");
  match r.damage with
  | None -> ()
  | Some why ->
    Format.fprintf ppf "; dropped %d tail byte%s (%s)" r.truncated_bytes
      (if r.truncated_bytes = 1 then "" else "s")
      why

let pp_status ppf (s : status) =
  Format.fprintf ppf
    "store %s: seq %d (snapshot through %d, %d bytes), log %d record%s (%d bytes)"
    s.dir s.seq s.snapshot_seq s.snapshot_bytes s.wal_records
    (if s.wal_records = 1 then "" else "s")
    s.wal_bytes
