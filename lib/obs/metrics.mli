(** The metrics registry: named counters, gauges, and log₂-bucket
    histograms with optional labels.

    Registration does one hashtable lookup and returns a handle; hot paths
    register once and hold it (see [Ivm_eval.Stats]).  Registering the
    same [(name, labels)] pair again returns the {e same} handle, so
    independent call sites share one time series.

    {b Exact across domains.}  Counters and histograms are sharded per
    domain: a bump does one domain-local read and one unsynchronised
    write to the calling domain's shard — no atomic, no lock — so bumps
    from any number of domains are never lost.  A domain allocates a
    histogram's shard on its first observation.  Every read ({!counter_value},
    the histogram reads, {!dump}, {!pp}) merges the shards, so
    a read taken after the bumping domains synchronised with the reader
    (a pool batch join, [Domain.join]) is exact; a read racing a bump may
    miss it, never tear it.  A domain's shard is folded into a retired
    total when the domain exits, so joined domains' counts are kept.
    {!local_value} reads the calling domain's shard alone.  Gauges are a
    single cell with last-writer-wins semantics.

    Counters are {b overflow-safe}: additions saturate at [max_int] instead
    of wrapping negative.  {!reset} zeroes every registered metric but
    keeps all handles valid — snapshots taken before a reset are stale and
    must not be subtracted across it (see [Ivm_eval.Stats.since]).  Like
    {!zero}, it is exact only at quiescence: a bump racing it may survive.

    Histograms use base-2 log buckets: bucket 0 holds values [<= 0], bucket
    [i >= 1] holds values from [2^(i-1)] inclusive to [2^i] exclusive.
    That fixes the memory cost (64 ints per domain shard) while spanning
    nanosecond latencies to billion-tuple sizes; {!percentile} answers
    with the containing bucket's upper bound, i.e. within 2x of the true
    value.

    The registry {e table} (registration, {!dump}, {!reset}, {!clear},
    help texts) and the list of shards are mutex-protected and safe to
    use from any domain — the live monitoring endpoint ([Ivm_monitor])
    renders {!dump} from its accept domain. *)

type labels = (string * string) list

type counter
type gauge
type histogram

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registered = { name : string; labels : labels; metric : metric }

(* ---------------- registration ---------------- *)

(** [counter ?labels ?help name] registers (or retrieves) the counter of
    this [(name, labels)] series.  [help], when given, (re)binds the
    family's help text — see {!set_help}.
    @raise Invalid_argument if the series exists with a different kind. *)
val counter : ?labels:labels -> ?help:string -> string -> counter

val gauge : ?labels:labels -> ?help:string -> string -> gauge
val histogram : ?labels:labels -> ?help:string -> string -> histogram

(** Attach (or replace) the help text of metric family [name] — one help
    per family, rendered as the [# HELP] line of the Prometheus
    exposition. *)
val set_help : string -> string -> unit

val help : string -> string option

(* ---------------- updates ---------------- *)

(** Saturating add: never wraps past [max_int].  Negative [n] subtracts. *)
val add : counter -> int -> unit

val inc : counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> int -> unit

(* ---------------- reads ---------------- *)

val counter_value : counter -> int

(** [local_value ()] is the calling domain's shard, as a reader of its
    own counts: [local_value () c] is the part of [c] this domain added
    since the last {!reset}/{!zero}.  One domain-local read, however
    many counters are then read through it. *)
val local_value : unit -> counter -> int

val gauge_value : gauge -> float
val histogram_count : histogram -> int
val histogram_sum : histogram -> int
val histogram_min : histogram -> int
val histogram_max : histogram -> int

(** Bucket index of a value: 0 for [v <= 0], else [floor(log2 v) + 1],
    clamped to the last bucket. *)
val bucket_of : int -> int

(** Inclusive upper bound of bucket [i] ([0] for bucket 0). *)
val bucket_upper : int -> int

val n_buckets : int

(** [percentile h p] for [p] in [[0, 1]]: the upper bound of the bucket
    containing the [ceil(p * count)]-th smallest observation (0 on an
    empty histogram).  Within a factor of 2 of the exact answer. *)
val percentile : histogram -> float -> int

(** [(upper_bound, cumulative_count)] per bucket, bucket 0 through the
    bucket holding the largest observation (empty on an empty
    histogram).  The shape Prometheus [_bucket{le=...}] samples want;
    the renderer appends [+Inf] itself. *)
val cumulative_buckets : histogram -> (int * int) list

(* ---------------- enumeration ---------------- *)

(** All registered metrics, sorted by canonical [name{k=v,…}] key. *)
val dump : unit -> registered list

(** Zero every registered metric; handles stay valid. *)
val reset : unit -> unit

(** Zero one counter in every domain's shard; other metrics keep their
    values. *)
val zero : counter -> unit

(** Drop every registration and help text (tests use this for
    isolation).  Previously returned handles keep working but are no
    longer enumerated. *)
val clear : unit -> unit

(** One metric per line, [name{labels} = value]. *)
val pp : Format.formatter -> unit -> unit
