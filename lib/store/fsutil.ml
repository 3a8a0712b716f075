(** Durability helpers shared by {!Snapshot} and {!Wal}: fsync an open
    channel, and fsync a directory so renames/creates survive a crash.
    Both bump the [ivm_store_fsyncs_total] counter. *)

module Metrics = Ivm_obs.Metrics

let fsyncs_c = Metrics.counter "ivm_store_fsyncs_total"

let fsync_out_channel oc =
  Out_channel.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  Metrics.inc fsyncs_c

(** fsync a directory.  [EINVAL] from the fsync means this filesystem
    cannot sync a directory fd and is ignored; a failed open and every
    other error (EIO included) propagate as [Unix.Unix_error]. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.fsync fd with
      | () -> Metrics.inc fsyncs_c
      | exception Unix.Unix_error (Unix.EINVAL, _, _) -> ())
