(* The metrics registry; see metrics.mli for the contract.  Counter and
   histogram handles are indexes into per-domain shards: each domain
   writes only its own shard, reads merge every shard under [lock]. *)

type labels = (string * string) list

type counter = int
type gauge = { mutable value : float }
type histogram = int

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registered = { name : string; labels : labels; metric : metric }

(* One domain's observations of one histogram. *)
type hshard = {
  buckets : int array;  (** 64 log2 buckets *)
  mutable hcount : int;
  mutable hsum : int;
  mutable hmin : int;
  mutable hmax : int;
}

(* One domain's share of every counter and histogram, indexed by handle.
   Only the owning domain writes it (and grows the arrays); slots past
   the end are zero. *)
type shard = { mutable counts : int array; mutable hists : hshard array }

let n_buckets = 64

let new_hshard () =
  { buckets = Array.make n_buckets 0; hcount = 0; hsum = 0; hmin = max_int;
    hmax = min_int }

(* The empty slot of [shard.hists], never written. *)
let absent = { buckets = [||]; hcount = 0; hsum = 0; hmin = max_int; hmax = min_int }

let registry : (string, registered) Hashtbl.t = Hashtbl.create 64

(* Per metric-family help text, keyed by metric name (one help per
   family, whatever its label sets — the Prometheus exposition format
   allows one [# HELP] line per family). *)
let help_table : (string, string) Hashtbl.t = Hashtbl.create 64

let n_counters = ref 0
let n_histograms = ref 0

(* Shards of the running domains that ever bumped, and the merged
   shards of domains that have exited. *)
let live : shard list ref = ref []
let retired = { counts = [||]; hists = [||] }

(* Guards everything above except the shards' own slots, which their
   domains bump without it. *)
let lock = Mutex.create ()

let locked f = Mutex.protect lock f

let sat_add a n = if n > 0 && a > max_int - n then max_int else a + n

(* ---------------- shards ---------------- *)

let grow_counts s c =
  let a = Array.make (max (c + 1) (2 * Array.length s.counts)) 0 in
  Array.blit s.counts 0 a 0 (Array.length s.counts);
  s.counts <- a;
  a

(* [s]'s shard of histogram [h], allocated on first use. *)
let hshard_for s h =
  if h >= Array.length s.hists then begin
    let a = Array.make (max (h + 1) (2 * Array.length s.hists)) absent in
    Array.blit s.hists 0 a 0 (Array.length s.hists);
    s.hists <- a
  end;
  match s.hists.(h) with
  | x when x != absent -> x
  | _ ->
    let x = new_hshard () in
    s.hists.(h) <- x;
    x

let merge_hshard dst src =
  if src.hcount > 0 then begin
    Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
    dst.hcount <- dst.hcount + src.hcount;
    dst.hsum <- sat_add dst.hsum src.hsum;
    dst.hmin <- min dst.hmin src.hmin;
    dst.hmax <- max dst.hmax src.hmax
  end

(* Fold an exiting domain's shard into [retired]; run under [lock]. *)
let retire s =
  let n = Array.length s.counts in
  if n > Array.length retired.counts then ignore (grow_counts retired (n - 1));
  Array.iteri (fun c v -> retired.counts.(c) <- sat_add retired.counts.(c) v) s.counts;
  Array.iteri
    (fun h x -> if x.hcount > 0 then merge_hshard (hshard_for retired h) x)
    s.hists;
  live := List.filter (fun l -> l != s) !live

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { counts = [||]; hists = [||] } in
      locked (fun () -> live := s :: !live);
      Domain.at_exit (fun () -> locked (fun () -> retire s));
      s)

(* [f] over [retired] and every live shard, under [lock] so no shard is
   counted both live and retired. *)
let fold_shards f init =
  locked (fun () -> List.fold_left f (f init retired) !live)

(* ---------------- registration ---------------- *)

(** Attach (or replace) the help text of metric family [name]. *)
let set_help name help = locked (fun () -> Hashtbl.replace help_table name help)

let help name = locked (fun () -> Hashtbl.find_opt help_table name)

(** Canonical key: name plus sorted [k=v] labels. *)
let key name (labels : labels) =
  match labels with
  | [] -> name
  | _ ->
    let sorted = List.sort compare labels in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) sorted)
    ^ "}"

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register ?help name labels make extract =
  locked (fun () ->
      (match help with Some h -> Hashtbl.replace help_table name h | None -> ());
      let k = key name labels in
      match Hashtbl.find_opt registry k with
      | Some r -> (
        match extract r.metric with
        | Some h -> h
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" k
               (kind_name r.metric)))
      | None ->
        let h, m = make () in
        Hashtbl.replace registry k
          { name; labels = List.sort compare labels; metric = m };
        h)

let next_id n =
  let id = !n in
  incr n;
  id

let counter ?(labels = []) ?help name : counter =
  register ?help name labels
    (fun () ->
      let c = next_id n_counters in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge ?(labels = []) ?help name : gauge =
  register ?help name labels
    (fun () ->
      let g = { value = 0. } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram ?(labels = []) ?help name : histogram =
  register ?help name labels
    (fun () ->
      let h = next_id n_histograms in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

(* ---------------- updates ---------------- *)

(** Saturating add: never wraps past [max_int]. *)
let add (c : counter) n =
  let s = Domain.DLS.get shard_key in
  let a = s.counts in
  if c < Array.length a then Array.unsafe_set a c (sat_add (Array.unsafe_get a c) n)
  else
    let a = grow_counts s c in
    a.(c) <- sat_add a.(c) n

(* [add c 1] without the extra call: the evaluator's per-probe bump. *)
let inc (c : counter) =
  let a = (Domain.DLS.get shard_key).counts in
  if c < Array.length a then begin
    let v = Array.unsafe_get a c in
    if v < max_int then Array.unsafe_set a c (v + 1)
  end
  else add c 1

let set (g : gauge) v = g.value <- v

(** Bucket index of [v]: 0 for [v <= 0], else [floor(log2 v) + 1],
    clamped to the last bucket. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    min !i (n_buckets - 1)
  end

(** Inclusive upper bound of bucket [i] ([0] for bucket 0). *)
let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

let observe (h : histogram) v =
  let x = hshard_for (Domain.DLS.get shard_key) h in
  let b = bucket_of v in
  x.buckets.(b) <- x.buckets.(b) + 1;
  x.hcount <- x.hcount + 1;
  x.hsum <- sat_add x.hsum v;
  if v < x.hmin then x.hmin <- v;
  if v > x.hmax then x.hmax <- v

(* ---------------- reads ---------------- *)

let count_in s c = if c < Array.length s.counts then s.counts.(c) else 0

let counter_value (c : counter) =
  fold_shards (fun acc s -> sat_add acc (count_in s c)) 0

(* Each domain's reader of its own shard, built once. *)
let local_key : (counter -> int) Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = Domain.DLS.get shard_key in
      fun c -> count_in s c)

let local_value () = Domain.DLS.get local_key

let gauge_value (g : gauge) = g.value

(* Every domain's observations of [h], merged into a fresh shard. *)
let merged (h : histogram) =
  let m = new_hshard () in
  fold_shards
    (fun () s -> if h < Array.length s.hists then merge_hshard m s.hists.(h))
    ();
  m

let min_of m = if m.hcount = 0 then 0 else m.hmin
let max_of m = if m.hcount = 0 then 0 else m.hmax

let histogram_count h = (merged h).hcount
let histogram_sum h = (merged h).hsum
let histogram_min h = min_of (merged h)
let histogram_max h = max_of (merged h)

let percentile_of m p =
  if m.hcount = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (p *. float_of_int m.hcount))) in
    let rank = min rank m.hcount in
    let cum = ref 0 and result = ref (bucket_upper (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + m.buckets.(i);
         if !cum >= rank then begin
           result := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let percentile h p = percentile_of (merged h) p

(** [(upper_bound, cumulative_count)] per bucket, from bucket 0 through
    the bucket holding the largest observation (empty list on an empty
    histogram).  Upper bounds are inclusive ({!bucket_upper}), counts are
    cumulative — exactly the shape Prometheus [_bucket{le=...}] samples
    want (the renderer appends the [+Inf] bucket itself). *)
let cumulative_buckets h : (int * int) list =
  let m = merged h in
  if m.hcount = 0 then []
  else begin
    let acc = ref 0 in
    List.init
      (bucket_of m.hmax + 1)
      (fun i ->
        acc := !acc + m.buckets.(i);
        (bucket_upper i, !acc))
  end

(* ---------------- enumeration ---------------- *)

(** All registered metrics, sorted by canonical key. *)
let dump () : registered list =
  locked (fun () -> Hashtbl.fold (fun _ r acc -> r :: acc) registry [])
  |> List.sort (fun a b -> compare (key a.name a.labels) (key b.name b.labels))

let zero_hshard x =
  if x != absent then begin
    Array.fill x.buckets 0 n_buckets 0;
    x.hcount <- 0;
    x.hsum <- 0;
    x.hmin <- max_int;
    x.hmax <- min_int
  end

(** Zero every registered metric; handles stay valid. *)
let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ r -> match r.metric with Gauge g -> g.value <- 0. | _ -> ())
        registry);
  fold_shards
    (fun () s ->
      Array.fill s.counts 0 (Array.length s.counts) 0;
      Array.iter zero_hshard s.hists)
    ()

let zero (c : counter) =
  fold_shards (fun () s -> if c < Array.length s.counts then s.counts.(c) <- 0) ()

(** Drop every registration (tests use this for isolation). *)
let clear () =
  locked (fun () ->
      Hashtbl.reset registry;
      Hashtbl.reset help_table)

let pp_value ppf = function
  | Counter c -> Format.fprintf ppf "%d" (counter_value c)
  | Gauge g ->
    if Float.is_integer g.value then Format.fprintf ppf "%.0f" g.value
    else Format.fprintf ppf "%g" g.value
  | Histogram h ->
    let m = merged h in
    Format.fprintf ppf "count=%d sum=%d min=%d p50=%d p90=%d p99=%d max=%d"
      m.hcount m.hsum (min_of m) (percentile_of m 0.5) (percentile_of m 0.9)
      (percentile_of m 0.99) (max_of m)

(** One metric per line, [name{labels} = value]. *)
let pp ppf () =
  List.iter
    (fun r ->
      Format.fprintf ppf "%s = %a@." (key r.name r.labels) pp_value r.metric)
    (dump ())
