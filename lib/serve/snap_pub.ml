(* Incremental snapshot publication (ARCHITECTURE.md §18).

   The serve path used to publish a reader snapshot by deep-copying the
   whole database after every group commit — O(|DB| + index rebuild)
   per group, measured as the dominant share of durable apply latency
   (EXPERIMENTS.md E19).  This module applies the paper's own
   counting-delta discipline to publication itself: one index-free
   shadow of the live database is {e patched} with each group's net
   tuple-count changes (surfaced from the maintenance algorithms' commit
   sites via [Changes.collector]) instead of copied.  Publish cost drops
   to O(|Δ| · indexes).

   Left-right publication.  Readers need a database nobody is writing,
   and there are two: the shadow, and the live database while it is at
   rest — after a group's fsync, before the next group's maintenance.  A
   publish
   1. swaps the live database in (it already holds the group);
   2. waits, bounded, until no reader pins the shadow;
   3. patches the shadow once with the group's collected set;
   4. swaps the shadow back in;
   5. waits, bounded, until no reader pins the live database,
   so each group is written twice — by maintenance and into the shadow —
   and readers see the live database only between the fsync and the
   shadow's catch-up, never during maintenance.

   Reader safety is exact pinning.  Every swap publishes a fresh slot
   [{seq; db}] numbered one past the last.  A reader stores the slot's
   [seq] in its own pin cell, then re-reads the published slot and uses
   [db] only if the slot is still the same one; otherwise it pins again.
   A database swapped out at slot [s] is therefore free once no cell
   holds [s]: a reader that loaded slot [s] but pinned it after the
   writer looked fails its re-read, because the writer swapped before it
   looked (pin, swap and both reads are OCaml SC atomics).

   Neither wait mutates what a reader holds (invariant 13: a published
   snapshot is never mutated while pinned), and neither blocks the
   writer on a client for more than [max_wait_s].  A reader still on the
   shadow: the writer leaves it to the reader and the GC and copies the
   live database afresh instead of patching.  A reader still on the live
   database: maintenance moves to an equal copy
   ([View_manager.fork_database]) and the old database stays the
   reader's.  Both count as [stalled_reader] full copies.  A full copy
   also covers every commit the delta feed cannot describe: recompute
   batches, rule changes / algorithm switches
   ([View_manager.state_version]), a replaced database identity, and
   databases with registered aggregate indexes (their accumulator state
   is not tuple-count-patchable). *)

module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Database = Ivm_eval.Database
module Relation = Ivm_relation.Relation
module Json = Ivm_obs.Json
module Metrics = Ivm_obs.Metrics

let idle = max_int

(* One swap: the database readers fetch, and its sequence number.
   Publish [p] swaps at [2p + 1] (live) and [2p + 2] (shadow); the
   initial shadow is slot 2, so [(seq + 1) / 2] is the publish epoch. *)
type slot = { seq : int; db : Database.t }

let epoch_of seq = (seq + 1) / 2

type mode = Incremental | Full_copy

let mode_name = function
  | Incremental -> "incremental"
  | Full_copy -> "full_fallback"

type t = {
  vm : Vm.t;
  max_wait_s : float;
  published : slot Atomic.t;
      (** between publishes, always the shadow's slot *)
  readers : int Atomic.t array;
      (** per-reader pin cells: the pinned slot's [seq], [idle] when
          unpinned *)
  (* writer-domain state *)
  mutable last_db : Database.t;
      (** physical identity of the live database at the last publish —
          a rule change replaces it wholesale *)
  mutable last_state_version : int;
  mutable last_publish_at : float;
  mutable last_mode : mode;
  (* writer-only counters, mirrored into the metrics registry *)
  mutable publishes : int;
  mutable incremental : int;
  mutable full_untracked : int;
  mutable full_stalled : int;
}

(* ---------------- metrics ---------------- *)

let publish_mode_c mode =
  Metrics.counter
    ~labels:[ ("mode", mode_name mode) ]
    "ivm_serve_publish_total" ~help:"Snapshot publishes, by mode"

let full_copies_c reason =
  Metrics.counter
    ~labels:[ ("reason", reason) ]
    "ivm_serve_publish_full_copies_total"
    ~help:"Publishes that fell back to a full database copy, by reason"

let patched_tuples_h =
  Metrics.histogram "ivm_serve_publish_patch_tuples"
    ~help:
      "Net tuples patched into the shadow snapshot per incremental publish \
       (one group's collected set)"

let snapshot_age_g =
  Metrics.gauge "ivm_serve_snapshot_age_seconds"
    ~help:"Seconds since the published snapshot was last swapped"

let reader_lag_g i =
  Metrics.gauge
    ~labels:[ ("reader", string_of_int i) ]
    "ivm_serve_reader_epoch_lag"
    ~help:"Publish epochs the reader's pin trails behind (0 when idle)"

let stage_h stage =
  Metrics.histogram
    ~labels:[ ("stage", stage) ]
    "ivm_serve_stage_ns"

(* ---------------- construction ---------------- *)

let create ?(max_wait_s = 0.05) ~readers (vm : Vm.t) : t =
  if readers < 1 then invalid_arg "Snap_pub.create: readers must be >= 1";
  (* pre-register every label combination so the families export at 0
     from the first scrape, before any publish or fallback happens *)
  ignore (publish_mode_c Incremental);
  ignore (publish_mode_c Full_copy);
  ignore (full_copies_c "untracked");
  ignore (full_copies_c "stalled_reader");
  let live = Vm.database vm in
  {
    vm;
    max_wait_s;
    published = Atomic.make { seq = 2; db = Database.copy ~with_indexes:false live };
    readers = Array.init readers (fun _ -> Atomic.make idle);
    last_db = live;
    last_state_version = Vm.state_version vm;
    last_publish_at = Unix.gettimeofday ();
    last_mode = Full_copy;
    publishes = 0;
    incremental = 0;
    full_untracked = 0;
    full_stalled = 0;
  }

(* ---------------- reader protocol ---------------- *)

let acquire (t : t) ~reader : Database.t =
  let cell = t.readers.(reader) in
  let rec pin () =
    let slot = Atomic.get t.published in
    Atomic.set cell slot.seq;
    (* still published after the pin is visible: the writer has not
       looked for this slot's pins yet, so it will see this one *)
    if Atomic.get t.published == slot then slot.db else pin ()
  in
  pin ()

let release (t : t) ~reader : unit = Atomic.set t.readers.(reader) idle

(** The published snapshot without pinning — safe only where no publish
    can run concurrently (the writer domain itself, single-domain
    tests).  Readers must use {!acquire}/{!release}. *)
let current (t : t) : Database.t = (Atomic.get t.published).db

let epoch (t : t) : int = epoch_of (Atomic.get t.published).seq

(* ---------------- writer side ---------------- *)

let swap (t : t) (db : Database.t) : int =
  let seq = (Atomic.get t.published).seq + 1 in
  Atomic.set t.published { seq; db };
  seq

let drained (t : t) seq = Array.for_all (fun cell -> Atomic.get cell <> seq) t.readers

(* Spin (with short naps) until no cell pins slot [seq], or the deadline
   passes. *)
let wait_drained (t : t) seq : bool =
  drained t seq
  ||
  let deadline = Unix.gettimeofday () +. t.max_wait_s in
  let rec go spins =
    if drained t seq then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      if spins > 200 then Unix.sleepf 0.0002 else Domain.cpu_relax ();
      go (spins + 1)
    end
  in
  go 0

(* Observe the sub-stage that began at [t0]; returns its end. *)
let stage (name : string) (t0 : float) : float =
  let t1 = Unix.gettimeofday () in
  Metrics.observe (stage_h name) (int_of_float ((t1 -. t0) *. 1e9));
  t1

let patch (db : Database.t) (delta : Changes.t) =
  List.iter
    (fun (pred, d) ->
      let stored = Database.relation db pred in
      Relation.iter (fun tup c -> Relation.patch stored tup c) d)
    delta

(** Publish the live database's state after a group commit.  Writer
    domain only.  [track], when complete and nothing moved out-of-band
    since the last publish, carries the group's exact net changes and the
    shadow is patched with them; otherwise the shadow is replaced by a
    fresh copy.  Returns the mode actually used. *)
let publish ?track (t : t) : mode =
  let live = Vm.database t.vm in
  let version = Vm.state_version t.vm in
  let tracked =
    match track with
    | Some col
      when Changes.is_complete col
           && live == t.last_db
           && version = t.last_state_version
           && Database.agg_signatures live = [] ->
      Some (Changes.collected col)
    | _ -> None
  in
  let shadow = Atomic.get t.published in
  let t0 = Unix.gettimeofday () in
  let live_seq = swap t live in
  let shadow_free = wait_drained t shadow.seq in
  let t1 = stage "publish.rotate_wait" t0 in
  let next =
    match tracked with
    | Some delta when shadow_free ->
      patch shadow.db delta;
      ignore (stage "publish.patch" t1 : float);
      Metrics.observe patched_tuples_h (Changes.total_tuples delta);
      shadow.db
    | _ ->
      (* untracked, or a stalled reader still holds the shadow: leave it
         be and copy the live state afresh *)
      Database.copy ~with_indexes:false live
  in
  ignore (swap t next : int);
  let t2 = Unix.gettimeofday () in
  let live_free = wait_drained t live_seq in
  ignore (stage "publish.live_drain" t2 : float);
  (* a reader still holds the live database: it keeps it, unmutated, and
     the next group is maintained on an equal copy *)
  if not live_free then Vm.fork_database t.vm;
  let stalled = not (shadow_free && live_free) in
  let mode = if Option.is_some tracked && not stalled then Incremental else Full_copy in
  (match mode with
  | Incremental -> t.incremental <- t.incremental + 1
  | Full_copy ->
    (* one count per publish; a stall outranks an untracked commit *)
    Metrics.inc (full_copies_c (if stalled then "stalled_reader" else "untracked"));
    if stalled then t.full_stalled <- t.full_stalled + 1
    else t.full_untracked <- t.full_untracked + 1);
  t.last_db <- Vm.database t.vm;
  t.last_state_version <- version;
  t.last_publish_at <- Unix.gettimeofday ();
  t.last_mode <- mode;
  t.publishes <- t.publishes + 1;
  Metrics.inc (publish_mode_c mode);
  Metrics.set snapshot_age_g 0.;
  mode

(* ---------------- observability ---------------- *)

let reader_lag (t : t) i =
  let pinned = Atomic.get t.readers.(i) in
  if pinned = idle then 0 else max 0 (epoch t - epoch_of pinned)

(** Refresh the snapshot-age and per-reader epoch-lag gauges (called
    from the monitor's before-scrape hook and after each publish). *)
let refresh_gauges (t : t) : unit =
  Metrics.set snapshot_age_g (Unix.gettimeofday () -. t.last_publish_at);
  Array.iteri
    (fun i _ -> Metrics.set (reader_lag_g i) (float_of_int (reader_lag t i)))
    t.readers

type stats = {
  publishes : int;
  incremental : int;
  full_copies : int;
  full_stalled : int;
}

let stats (t : t) : stats =
  {
    publishes = t.publishes;
    incremental = t.incremental;
    full_copies = t.full_untracked + t.full_stalled;
    full_stalled = t.full_stalled;
  }

(** The publisher block of the server's [/statusz] document.  Same racy
    point-in-time read contract as the rest of the status page. *)
let status_json (t : t) : Json.t =
  let readers =
    Array.to_list
      (Array.mapi
         (fun i cell ->
           let pinned = Atomic.get cell <> idle in
           Json.Obj
             [
               ("reader", Json.int i);
               ("pinned", Json.Bool pinned);
               ("epoch_lag", Json.int (reader_lag t i));
             ])
         t.readers)
  in
  Json.Obj
    [
      ("epoch", Json.int (epoch t));
      ("mode", Json.Str (mode_name t.last_mode));
      ("publishes", Json.int t.publishes);
      ("incremental", Json.int t.incremental);
      ("full_untracked", Json.int t.full_untracked);
      ("full_stalled", Json.int t.full_stalled);
      ( "snapshot_age_s",
        Json.Num (Unix.gettimeofday () -. t.last_publish_at) );
      ("max_wait_s", Json.Num t.max_wait_s);
      ("readers", Json.List readers);
    ]
