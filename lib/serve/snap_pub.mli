(** Incremental snapshot publication — left-right over the live
    database and one shadow (ARCHITECTURE.md §18).

    One index-free shadow of the live database sits behind an atomically
    published pointer.  After each group commit the writer swaps the
    live database in (it is at rest until the next group), patches the
    shadow with the group's {e net tuple-count changes} (surfaced from
    the maintenance algorithms' commit sites via
    {!Ivm.Changes.collector}) and swaps the shadow back in: each group is
    written once by maintenance and once into the shadow, O(|Δ| ·
    indexes), instead of the old O(|DB| + index rebuild)
    [Database.copy] per group.

    Reader safety is {e exact pinning}: a reader stores the published
    slot's sequence number in its pin cell and uses the slot only if it
    is still published after the pin; the writer mutates a database
    swapped out at slot [s] only once no cell holds [s].  Both waits — for
    the shadow before the patch, for the live database before the next
    group — are bounded: a reader still on the shadow makes the writer
    copy the live database afresh instead of patching; a reader still on
    the live database keeps it, and maintenance moves to an equal copy
    ({!Ivm.View_manager.fork_database}).  A published snapshot is
    {e never} mutated while any reader pins it (invariant 13) and no
    client can wedge the writer.

    Commits the delta feed cannot describe — recompute batches, rule
    changes / algorithm switches ({!Ivm.View_manager.state_version}), a
    replaced database identity, registered aggregate indexes — also
    fall back to a full copy (counted, observable on [/metrics] and
    [/statusz]). *)

module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Database = Ivm_eval.Database
module Json = Ivm_obs.Json

type t

type mode = Incremental | Full_copy

(** ["incremental"] / ["full_fallback"] — the [mode] label values of
    [ivm_serve_publish_total]. *)
val mode_name : mode -> string

(** [create ~readers vm] seeds the shadow from the manager's current
    database (a [~with_indexes:false] copy).  [readers] is the number of
    pin cells — one per reader domain, addressed by index.
    [max_wait_s] (default 0.05) bounds each of the writer's two waits
    for pinned readers before it gives up and copies instead. *)
val create : ?max_wait_s:float -> readers:int -> Vm.t -> t

(** [acquire t ~reader] pins reader [reader]'s cell on the published
    slot and returns its snapshot.  The snapshot is guaranteed unmutated
    until the matching {!release}.  Pin windows should span only the
    query evaluation, never socket writes. *)
val acquire : t -> reader:int -> Database.t

val release : t -> reader:int -> unit

(** The published snapshot without pinning — safe only where no publish
    can run concurrently (the writer domain, single-domain tests). *)
val current : t -> Database.t

(** Publish epoch: bumped once per {!publish}. *)
val epoch : t -> int

(** Publish the live database's state after a group commit (writer
    domain only).  With a complete [track] collector and no out-of-band
    mutation since the last publish, the shadow is patched once with
    [Changes.collected track] ([Incremental]); otherwise it is replaced
    by a fresh copy ([Full_copy]), as it is when a stalled reader forces
    a copy of either database.  Readers see the live database only
    during the call.  Observes [publish.rotate_wait] / [publish.patch] /
    [publish.live_drain] under [ivm_serve_stage_ns] and the publish-mode
    counters. *)
val publish : ?track:Changes.collector -> t -> mode

(** Epochs reader [i]'s pin trails the current epoch; 0 when idle. *)
val reader_lag : t -> int -> int

(** Refresh [ivm_serve_snapshot_age_seconds] and the per-reader
    [ivm_serve_reader_epoch_lag] gauges (the monitor's before-scrape
    hook). *)
val refresh_gauges : t -> unit

type stats = {
  publishes : int;
  incremental : int;
  full_copies : int;
  full_stalled : int;
}

val stats : t -> stats

(** The publisher block of [/statusz] (racy point-in-time reads, like
    the rest of the status document). *)
val status_json : t -> Json.t
