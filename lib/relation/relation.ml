(* One stored tuple with its live derivation count, and the main table's
   hash-chain node for it: the tuple's cached hash sits beside the link,
   so a lookup compares hashes without touching a non-matching tuple, and
   there is no cons cell per tuple and no option per lookup.  The entry is
   shared between the main table and every secondary-index bucket, so a
   probe reads the count straight off the bucket — no second lookup — and
   an in-place count change ([add] on an existing tuple) touches no index
   at all. *)
type entry = {
  etup : Tuple.t;
  ehash : int;
  mutable ecount : int;
  mutable enext : entry;
}

(* The one "no entry" value: it ends every chain, fills empty buckets and
   is what a failed lookup returns (count 0).  It is never written. *)
let rec empty = { etup = Tuple.of_list []; ehash = 0; ecount = 0; enext = empty }

(* One member of an index group: an entry's chain node in the group. *)
type member = { ment : entry; mutable mnext : member }

let rec no_member = { ment = empty; mnext = no_member }

(* The entries of one index that share a projection on its columns.  A
   group lays its members out exactly as the [Hashtbl.Make (Tuple)]
   bucket table it replaces did — 16 buckets at first, bucket
   [ehash land (len - 1)], head insertion, an order-keeping doubling once
   [size > 2 × len], first-match removal — so a probe enumerates the
   group in the order earlier releases did.  [gkey] is the tuple that
   created the group (its projection is the key, compared column by
   column) and [ghash] is [Tuple.hash] of that projection, so a group is
   found from a stored tuple or a probe key without building one.  An
   emptied group is unlinked; re-created, it starts at 16 buckets. *)
type group = {
  gkey : Tuple.t;
  ghash : int;
  mutable gsize : int;
  mutable gdata : member array;
  mutable gnext : group;
}

let rec no_group =
  { gkey = Tuple.of_list []; ghash = 0; gsize = 0; gdata = [||]; gnext = no_group }

(* An index chains its groups by projection hash, in a table that
   doubles once [ngroups > 2 × len]. *)
type index = {
  cols : int array;
  kpos : int array;  (** [0, 1, …]: where a probe key holds each column *)
  mutable ngroups : int;
  mutable groups : group array;
}

(* The main table is laid out exactly as [Hashtbl.Make (Tuple)] would lay
   it out — bucket [hash land (len - 1)], initial length
   [power_2_above 16 size], head insertion, doubling once [size > 2 × len]
   by an in-place resize that keeps chain order, [clear] back to the
   initial length — so [iter], [fold], [copy], [build_index] and
   [sorted_entries] visit tuples in the order earlier releases did, and
   snapshots, frames and digests stay byte-identical.  A resize relinks
   chains in place, so an [iter]/[fold] callback must not insert into the
   relation being traversed (removing and count changes are fine).

   [indexes] is demand-built on first probe, which can happen from several
   domains at once during parallel delta evaluation (relations are
   read-only there, but probing builds indexes).  The list is published
   through an [Atomic.t] — an index is fully built before it becomes
   reachable, so concurrent probers either see it complete or build-race
   on [build_lock] and find it on the re-check.  Mutation (insert/remove)
   remains single-domain, like the rest of the store.

   [ints] holds while every tuple inserted since [create] or the last
   [clear] held only [Int] values, so an encoder can size the relation
   from its cardinal alone.  A removal never sets it back, so it may read
   [false] of a relation that is all-[Int] again; a [copy] inherits it
   rather than reading its tuples' values again. *)
type t = {
  arity : int;
  mutable size : int;
  mutable data : entry array;
  initial : int;
  indexes : index list Atomic.t;
  build_lock : Mutex.t;
  mutable ints : bool;
}

let rec power_2_above x n =
  if x >= n || x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create ?(size = 64) arity =
  let initial = power_2_above 16 size in
  { arity; size = 0; data = Array.make initial empty; initial;
    indexes = Atomic.make []; build_lock = Mutex.create (); ints = true }
let arity r = r.arity
let cardinal r = r.size
let all_ints r = r.ints

(* The entry holding [t], or [empty]. *)
let rec find_in e h t =
  if e == empty || (e.ehash = h && Tuple.compare e.etup t = 0) then e
  else find_in e.enext h t

let lookup r t =
  let h = Tuple.hash t in
  find_in r.data.(h land (Array.length r.data - 1)) h t

(* Chain walks read the next link before calling [f], like
   [Hashtbl.iter], so [f] may remove the entry it is given. *)
let rec iter_chain f e =
  if e != empty then begin
    let next = e.enext in
    f e;
    iter_chain f next
  end

let iter_entries f r = Array.iter (iter_chain f) r.data

let rec fold_chain f e acc =
  if e == empty then acc
  else
    let next = e.enext in
    fold_chain f next (f e.etup e.ecount acc)

let rec iter_tuples f e =
  if e != empty then begin
    let next = e.enext in
    f e.etup e.ecount;
    iter_tuples f next
  end

let iter f r = Array.iter (iter_tuples f) r.data
let fold f r init = Array.fold_left (fun acc e -> fold_chain f e acc) init r.data

(** Number of demand-built secondary indexes currently attached (for the
    observability gauges — see {!Ivm_eval.Database.observe_gauges}). *)
let index_count r = List.length (Atomic.get r.indexes)
let total_count r = fold (fun _ c acc -> acc + c) r 0
let is_empty r = r.size = 0
let count r t = (lookup r t).ecount
let mem r t = lookup r t != empty

let cols_equal (a : int array) (b : int array) =
  a == b
  || (Array.length a = Array.length b
      &&
      let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
      go 0)

(* A group's key is [vals] read at [at]: a stored tuple's columns
   ([at = cols]) or a probe key's ([at = kpos], its positions). *)
let rec key_is cols (k : Value.t array) at (vals : Value.t array) i =
  i >= Array.length cols
  || (Value.equal k.(cols.(i)) vals.(at.(i)) && key_is cols k at vals (i + 1))

let rec find_group cols h at vals g =
  if g == no_group || (g.ghash = h && key_is cols g.gkey.vals at vals 0) then g
  else find_group cols h at vals g.gnext

(* [Hashtbl]'s resize, for member and group chains alike: double the
   bucket array and append each chain's nodes, in order, to the tails of
   their new buckets. *)
let relink data ~none ~hash ~next ~set_next =
  let n = Array.length data * 2 in
  let out = Array.make n none and tails = Array.make n none in
  let rec walk x =
    if x != none then begin
      let nx = next x and j = hash x land (n - 1) in
      if tails.(j) == none then out.(j) <- x else set_next tails.(j) x;
      tails.(j) <- x;
      walk nx
    end
  in
  Array.iter walk data;
  Array.iter (fun x -> if x != none then set_next x none) tails;
  out

let index_insert idx e =
  let h = Tuple.hash_cols idx.cols e.etup and d = idx.groups in
  let i = h land (Array.length d - 1) in
  let g = find_group idx.cols h idx.cols e.etup.vals d.(i) in
  let g =
    if g != no_group then g
    else begin
      let g =
        { gkey = e.etup; ghash = h; gsize = 0; gdata = Array.make 16 no_member; gnext = d.(i) }
      in
      d.(i) <- g;
      idx.ngroups <- idx.ngroups + 1;
      if idx.ngroups > Array.length d lsl 1 then
        idx.groups <-
          relink d ~none:no_group ~hash:(fun g -> g.ghash) ~next:(fun g -> g.gnext)
            ~set_next:(fun g x -> g.gnext <- x);
      g
    end
  in
  let gd = g.gdata in
  let j = e.ehash land (Array.length gd - 1) in
  gd.(j) <- { ment = e; mnext = gd.(j) };
  g.gsize <- g.gsize + 1;
  if g.gsize > Array.length gd lsl 1 then
    g.gdata <-
      relink gd ~none:no_member ~hash:(fun m -> m.ment.ehash) ~next:(fun m -> m.mnext)
        ~set_next:(fun m x -> m.mnext <- x)

(* First-match removal of [e]'s member from chain [j] of [gd]. *)
let rec unlink_member gd j e prev m =
  if m == no_member then false
  else if m.ment != e then unlink_member gd j e m m.mnext
  else begin
    if prev == no_member then gd.(j) <- m.mnext else prev.mnext <- m.mnext;
    true
  end

let rec unlink_group d i g prev x =
  if x == g then (if prev == no_group then d.(i) <- g.gnext else prev.gnext <- g.gnext)
  else unlink_group d i g x x.gnext

let index_remove idx e =
  let h = Tuple.hash_cols idx.cols e.etup and d = idx.groups in
  let i = h land (Array.length d - 1) in
  let g = find_group idx.cols h idx.cols e.etup.vals d.(i) in
  let gd = g.gdata and j = e.ehash land (Array.length g.gdata - 1) in
  if g != no_group && unlink_member gd j e no_member gd.(j) then begin
    g.gsize <- g.gsize - 1;
    if g.gsize = 0 then begin
      unlink_group d i g no_group d.(i);
      idx.ngroups <- idx.ngroups - 1
    end
  end

let check_arity r t =
  if Tuple.arity t <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation: arity mismatch (expected %d, got %d in %s)"
         r.arity (Tuple.arity t) (Tuple.to_string t))

let rec ints_from (vals : Value.t array) i =
  i >= Array.length vals
  || match vals.(i) with
     | Value.Int _ -> ints_from vals (i + 1)
     | Value.Float _ | Value.Str _ | Value.Bool _ -> false

(* Head insertion of a fresh entry for [t], absent from [r]; [ints] is
   the caller's to keep. *)
let link r t c =
  let h = Tuple.hash t and d = r.data in
  let i = h land (Array.length d - 1) in
  let e = { etup = t; ehash = h; ecount = c; enext = d.(i) } in
  d.(i) <- e;
  r.size <- r.size + 1;
  if r.size > Array.length d lsl 1 then
    r.data <-
      relink d ~none:empty ~hash:(fun e -> e.ehash) ~next:(fun e -> e.enext)
        ~set_next:(fun e x -> e.enext <- x);
  e

(* [f idx e] for every attached index, with no closure per tuple. *)
let rec each_index f e = function
  | [] -> ()
  | idx :: rest ->
    f idx e;
    each_index f e rest

let insert_entry r (t : Tuple.t) c =
  if r.ints && not (ints_from t.vals 0) then r.ints <- false;
  let e = link r t c in
  each_index index_insert e (Atomic.get r.indexes)

let rec unlink d i e prev x =
  if x == e then (if prev == empty then d.(i) <- e.enext else prev.enext <- e.enext)
  else unlink d i e x x.enext

let remove_entry r e =
  let d = r.data in
  let i = e.ehash land (Array.length d - 1) in
  unlink d i e empty d.(i);
  r.size <- r.size - 1;
  each_index index_remove e (Atomic.get r.indexes)

let set_count r t c =
  check_arity r t;
  let e = lookup r t in
  if e == empty then (if c <> 0 then insert_entry r t c)
  else if c = 0 then remove_entry r e
  else e.ecount <- c

(* The ⊎ hot path: one lookup, and an in-place count bump when the tuple
   stays resident (no index maintenance, no re-hash). *)
let add r t c =
  if c <> 0 then begin
    check_arity r t;
    let e = lookup r t in
    if e == empty then insert_entry r t c
    else
      let c' = e.ecount + c in
      if c' = 0 then remove_entry r e else e.ecount <- c'
  end

let remove r t = set_count r t 0

(* A lookup whose result a later [bump] reuses: the entry, or [empty]. *)
type slot = entry

let find = lookup
let slot_count e = e.ecount
let slot_tuple e = e.etup

(* [add r t c] on the entry [find r t] returned, [r] unchanged since:
   the same insertion, in-place bump or removal, without the lookup. *)
let bump r e t c =
  if c <> 0 then
    if e == empty then begin
      check_arity r t;
      insert_entry r t c
    end
    else
      let c' = e.ecount + c in
      if c' = 0 then remove_entry r e else e.ecount <- c'

(* In-place signed-delta application for the snapshot publisher (PR 10).
   Same shape as [add] — in particular an in-place count bump touches no
   index, and insert/remove maintain every attached index incrementally —
   but a publish patch must never drive a count negative: the deltas it
   applies are the *net* changes the maintenance algorithms already
   committed to the live database, so a negative here means the publisher
   and the live store have diverged and the snapshot can no longer be
   trusted. *)
let patch_count r t c =
  if c = 0 then count r t
  else begin
    check_arity r t;
    let e = lookup r t in
    let before = e.ecount in
    let c' = before + c in
    if c' < 0 then
      invalid_arg
        (Printf.sprintf "Relation.patch: count would go negative (%d%+d) for %s"
           before c (Tuple.to_string t));
    if e == empty then insert_entry r t c
    else if c' = 0 then remove_entry r e
    else e.ecount <- c';
    before
  end

let patch r t c = ignore (patch_count r t c : int)

exception Found

let exists f r =
  try
    iter (fun t c -> if f t c then raise Found) r;
    false
  with Found -> true

let clear r =
  if Array.length r.data <> r.initial then r.data <- Array.make r.initial empty
  else if r.size > 0 then Array.fill r.data 0 r.initial empty;
  r.size <- 0;
  r.ints <- true;
  Atomic.set r.indexes []

(* Bumped once per index actually built; [Ivm_eval.Stats.index_builds]
   reads the same registered counter. *)
let index_builds_c = Ivm_obs.Metrics.counter "ivm_index_builds_total"

let build_index r cols =
  let idx =
    { cols; kpos = Array.init (Array.length cols) Fun.id; ngroups = 0;
      groups = Array.make (power_2_above 16 (cardinal r)) no_group }
  in
  iter_entries (index_insert idx) r;
  idx

let find_index r cols =
  List.find_opt (fun idx -> cols_equal idx.cols cols) (Atomic.get r.indexes)

let get_index r cols =
  match find_index r cols with
  | Some idx -> idx
  | None ->
    (* Build-race with a concurrent prober: serialize builds on
       [build_lock], re-check under the lock, and publish the fully built
       index with a single [Atomic.set] so lock-free readers never see a
       partial index. *)
    Mutex.lock r.build_lock;
    let idx =
      match find_index r cols with
      | Some idx -> idx
      | None ->
        let idx = build_index r cols in
        Atomic.set r.indexes (idx :: Atomic.get r.indexes);
        Ivm_obs.Metrics.inc index_builds_c;
        idx
    in
    Mutex.unlock r.build_lock;
    idx

let ensure_index r cols = ignore (get_index r cols : index)

let copy ?(with_indexes = true) r =
  (* Fresh entry records (counts are mutable), then — by default — each
     index rebuilt over them, so a copy behaves like the live relation
     without lazily rebuilding on first probe.  [~with_indexes:false]
     skips the rebuild entirely: the serve publish path copies relations
     whose indexes the readers may never probe, and a reader that does
     probe rebuilds on demand under [build_lock] like any cold
     relation. *)
  let out = create ~size:(cardinal r) r.arity in
  iter_entries (fun e -> ignore (link out e.etup e.ecount : entry)) r;
  out.ints <- r.ints;
  if with_indexes then
    Atomic.set out.indexes
      (List.map (fun idx -> build_index out idx.cols) (Atomic.get r.indexes));
  out

let union_into ~into r = iter (fun t c -> add into t c) r

(* Chain by chain, in order, into a bucket array of [r]'s length: the
   copy's layout is [r]'s, where [copy]'s head insertion reverses each
   chain. *)
let negate r =
  let rec chain e =
    if e == empty then empty else { e with ecount = -e.ecount; enext = chain e.enext }
  in
  let data = Array.make (Array.length r.data) empty in
  Array.iteri (fun i e -> data.(i) <- chain e) r.data;
  { r with data; indexes = Atomic.make []; build_lock = Mutex.create () }

(* ⊎ and set-difference build {e index-free} results: the old
   implementation deep-copied every secondary index of [a] only to drop
   it, an O(|a| · indexes) waste per call.  Consumers rebuild indexes on
   demand if they ever probe the result. *)
let union a b =
  let r = create ~size:(cardinal a + cardinal b) a.arity in
  iter (fun t c -> add r t c) a;
  union_into ~into:r b;
  r

let diff a b =
  let r = create ~size:(cardinal a + cardinal b) a.arity in
  iter (fun t c -> add r t c) a;
  iter (fun t c -> add r t (-c)) b;
  r

let to_set r =
  let out = create ~size:(cardinal r) r.arity in
  iter (fun t c -> if c > 0 then set_count out t 1) r;
  out

let positive_part r =
  let out = create ~size:(cardinal r) r.arity in
  iter (fun t c -> if c > 0 then set_count out t c) r;
  out

let negative_part r =
  let out = create r.arity in
  iter (fun t c -> if c < 0 then set_count out t (-c)) r;
  out

let set_delta ~old_ ~new_ =
  let out = create new_.arity in
  iter (fun t c -> if c > 0 && count old_ t <= 0 then set_count out t 1) new_;
  iter (fun t c -> if c > 0 && count new_ t <= 0 then set_count out t (-1)) old_;
  out

let subset_by p a b =
  (* every tuple of [a] satisfying the relationship [p] w.r.t. [b] *)
  not (exists (fun t c -> not (p c (count b t))) a)

let equal_sets a b =
  subset_by (fun ca cb -> ca <= 0 || cb > 0) a b
  && subset_by (fun cb ca -> cb <= 0 || ca > 0) b a

let equal_counted a b =
  cardinal a = cardinal b && not (exists (fun t c -> count b t <> c) a)

(* ------------------------------------------------------------------ *)
(* Probing                                                              *)
(* ------------------------------------------------------------------ *)

(* Full-tuple fast path: probing on every column in natural order is a
   direct main-table lookup, no index.  Detected once, at handle
   resolution — not per probe call. *)
let natural_full r (cols : int array) =
  Array.length cols = r.arity
  &&
  let rec go i = i >= r.arity || (cols.(i) = i && go (i + 1)) in
  go 0

type handle = { hrel : t; hkind : kind }

and kind =
  | Kscan  (** no bound columns: enumerate everything *)
  | Kdirect  (** all columns bound in natural order: main-table lookup *)
  | Kindex of index  (** resolved secondary index *)

let probe_handle r cols =
  if Array.length cols = 0 then { hrel = r; hkind = Kscan }
  else if natural_full r cols then { hrel = r; hkind = Kdirect }
  else { hrel = r; hkind = Kindex (get_index r cols) }

(* Like [iter_chain], the next link is read before [f] runs. *)
let rec iter_members f m =
  if m != no_member then begin
    let next = m.mnext in
    f m.ment.etup m.ment.ecount;
    iter_members f next
  end

let probe_via h key f =
  match h.hkind with
  | Kscan -> iter f h.hrel
  | Kdirect ->
    let e = lookup h.hrel key in
    if e != empty then f e.etup e.ecount
  | Kindex idx ->
    let h = Tuple.hash key and d = idx.groups in
    let gd = (find_group idx.cols h idx.kpos key.vals d.(h land (Array.length d - 1))).gdata in
    for i = 0 to Array.length gd - 1 do
      iter_members f gd.(i)
    done

let probe r cols key f = probe_via (probe_handle r cols) key f

let probe_existing r cols key f =
  if Array.length cols = 0 || natural_full r cols then probe r cols key f
  else
    match find_index r cols with
    | Some idx -> probe_via { hrel = r; hkind = Kindex idx } key f
    | None ->
      let kpos = Array.init (Array.length cols) Fun.id in
      iter (fun t c -> if key_is cols t.vals kpos key.vals 0 then f t c) r

let of_list arity l =
  let r = create ~size:(List.length l) arity in
  List.iter (fun (t, c) -> add r t c) l;
  r

let of_tuples arity l =
  let r = create ~size:(List.length l) arity in
  List.iter (fun t -> add r t 1) l;
  r

(* The one sort kernel: the sorted positions into the entry array, in
   [Tuple.compare] order.  The entry array holds the entries in the
   reverse of [iter] order (no per-row pair), and so does the flat array
   below.

   When every value is an [Int], one pass reads each row's values, then
   its count, into a flat int array (stride [arity + 1]), and the
   positions sort on those integers ([radix_sort]): no step dereferences
   an entry, a tuple or a boxed value, and an encoder writes the rows
   from the same array without building the entry array at all.  Two
   distinct all-[Int] tuples never compare equal, so this is
   [Tuple.compare] order with no tie to break.  Any other relation sorts
   its entries by [Tuple.compare]: tuples can compare equal without
   being equal (an [Int] and a [Float] past 2^53), and the stable sort
   over the reverse of [iter] order keeps those in the order earlier
   releases encoded them, so snapshots and frames stay byte-identical
   either way.

   Nothing here may seed an array of more than 256 words with a young
   entry — [Array.make] then forces a minor collection, and a fresh
   relation's entries are young — so the entry array is filled from
   [empty] (old after the first minor collection), and the sort permutes
   positions, not entries, since [Array.stable_sort] seeds its merge
   buffer with the array's first element. *)
type sorted =
  | Ints of { order : int array; flat : int array }
  | Entries of { order : int array; ents : entry array }

let entries r =
  let ents = Array.make (cardinal r) empty in
  let i = ref (Array.length ents) in
  iter_entries
    (fun e ->
      decr i;
      ents.(!i) <- e)
    r;
  ents

exception Not_int

(* [r]'s values and counts, flat, or [None] at its first non-[Int]. *)
let int_rows r =
  let k = r.arity in
  let flat = Array.make (cardinal r * (k + 1)) 0 in
  let at = ref (Array.length flat) in
  match
    iter_entries
      (fun e ->
        at := !at - k - 1;
        let vals = e.etup.vals in
        for j = 0 to k - 1 do
          match vals.(j) with
          | Value.Int v -> flat.(!at + j) <- v
          | Value.Float _ | Value.Str _ | Value.Bool _ -> raise Not_int
        done;
        flat.(!at + k) <- e.ecount)
      r
  with
  | () -> Some flat
  | exception Not_int -> None

(* The rows of [flat] in order: a stable least-significant-digit radix
   sort of their positions, the last column first.  A column's digits
   are those of its value minus the column's minimum, read as an
   unsigned 63-bit int (the difference cannot overflow that), so a pass
   runs only over the bits that vary; a digit is up to 11 bits, fewer
   for a short relation.  A pass reads each row's digit through the
   current order and counts, then places. *)
let radix_sort flat ~k =
  let stride = k + 1 in
  let n = Array.length flat / stride in
  let rec log2_ceil b = if b >= 11 || 1 lsl b >= n then b else log2_ceil (b + 1) in
  let bits = max 1 (log2_ceil 0) in
  let mask = (1 lsl bits) - 1 in
  let count = Array.make (mask + 2) 0 in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  for j = k - 1 downto 0 do
    let lo = ref max_int and hi = ref min_int in
    for i = 0 to n - 1 do
      let v = flat.((i * stride) + j) in
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done;
    let lo = !lo and span = !hi - !lo in
    let shift = ref 0 in
    while !shift < 63 && span lsr !shift <> 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 (mask + 2) 0;
      for i = 0 to n - 1 do
        let c = (((flat.((s.(i) * stride) + j) - lo) lsr sh) land mask) + 1 in
        count.(c) <- count.(c) + 1
      done;
      for c = 1 to mask + 1 do
        count.(c) <- count.(c) + count.(c - 1)
      done;
      for i = 0 to n - 1 do
        let p = s.(i) in
        let c = ((flat.((p * stride) + j) - lo) lsr sh) land mask in
        d.(count.(c)) <- p;
        count.(c) <- count.(c) + 1
      done;
      src := d;
      dst := s;
      shift := sh + bits
    done
  done;
  !src

let sort r =
  match int_rows r with
  | Some flat -> Ints { order = radix_sort flat ~k:r.arity; flat }
  | None ->
    let ents = entries r in
    let order = Array.init (Array.length ents) Fun.id in
    Array.stable_sort (fun x y -> Tuple.compare ents.(x).etup ents.(y).etup) order;
    Entries { order; ents }

let sorted_entries r =
  match sort r with
  | Ints { order; _ } -> (order, entries r)
  | Entries { order; ents } -> (order, ents)

let iter_sorted f r =
  let order, ents = sorted_entries r in
  Array.iter (fun p -> f ents.(p).etup ents.(p).ecount) order

let to_sorted_list r =
  let order, ents = sorted_entries r in
  Array.fold_right (fun p acc -> (ents.(p).etup, ents.(p).ecount) :: acc) order []

let iter_sorted_rows ~ints ~tuples r =
  match sort r with
  | Ints { order; flat } ->
    let stride = r.arity + 1 in
    Array.iter (fun p -> ints flat (p * stride)) order
  | Entries { order; ents } -> Array.iter (fun p -> tuples ents.(p).etup ents.(p).ecount) order

let pp ppf r =
  let pp_entry ppf (t, c) =
    let pp_body ppf t =
      Format.pp_print_seq
        ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
        Value.pp ppf
        (Array.to_seq (Tuple.to_array t))
    in
    if c = 1 then Format.fprintf ppf "%a" pp_body t
    else Format.fprintf ppf "%a %d" pp_body t c
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_entry)
    (to_sorted_list r)

let to_string r = Format.asprintf "%a" pp r
