(** The round engine every semi-naive loop runs on: Seminaive's
    materialization, Counting's delta pass, Recursive counting's batch
    rounds and DRed's three phases.

    A round is a list of {!seed}s — a compiled rule, the predicate its
    emissions belong to, and optionally a body position with the delta
    that position enumerates.  {!round} splits each seed's delta into
    chunks by tuple hash, evaluates every (seed × chunk) as an
    independent task across the domain pool into a private buffer, and
    then hands the buffers to [commit] sequentially, in task order.
    {!fixpoint} iterates rounds over per-predicate frontiers until they
    drain.

    The discipline that makes tasks safe to run concurrently:

    - {b tasks only read} — stored relations, the caller's deltas and
      its lazy caches.  First touch of a lazy cache must never happen
      inside a task, so {!round} resolves every input of every seed once,
      sequentially, before fan-out;
    - {b commits are the only writes}; they run after all of the round's
      tasks have finished, and so does the fold of each task's work
      {!sample} into the open attribution batch, in the same task order;
    - {b no view outlives a commit}: views are resolved after the
      previous round's commits — by a seed's [inputs] inside its task,
      or by the fixpoint [step] that builds the round's seeds — and
      dropped before the round commits.  A view may be resolved against
      a delta as it stands at that moment (an overlay over a delta that
      is still empty is the stored relation alone), so a view kept
      across a commit could miss what the commit wrote.

    Determinism: the chunk count tracks the configured domain count, so
    the task list, and with it the commit order, is fixed per
    configuration, never by scheduling.  Identical final states across
    {e different} domain counts rest on [⊎] (counts sum per tuple,
    commutative and associative, so the merged content does not depend
    on the chunking) and, for the fixpoints, on monotonicity: a
    derivation that a sequential interleaving would have seen mid-round
    is picked up by the next round's seeds instead.  The determinism
    property suite checks both. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Tuple = Ivm_relation.Tuple
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace
module Attribution = Ivm_obs.Attribution

(** Deterministically partition [r] into at most [chunks] disjoint parts
    by tuple hash (counts preserved).  Returns [[| r |]] unchanged when
    chunking cannot help; never returns empty parts. *)
let split (r : Relation.t) ~chunks : Relation.t array =
  let n = Relation.cardinal r in
  if chunks <= 1 || n <= 1 then [| r |]
  else begin
    let arity = Relation.arity r in
    let parts =
      Array.init chunks (fun _ -> Relation.create ~size:(max 4 (n / chunks)) arity)
    in
    Relation.iter
      (fun t c -> Relation.add parts.((Tuple.hash t land max_int) mod chunks) t c)
      r;
    Array.of_list
      (List.filter (fun p -> not (Relation.is_empty p)) (Array.to_list parts))
  end

type seed = {
  head : string;  (** the predicate the rule's emissions are committed to *)
  rule : Compile.t;
  at : (int * Relation.t) option;
      (** the seed position and the delta it enumerates (with its own
          counts); [None] evaluates the whole body once *)
  inputs : int -> Rule_eval.subgoal_input;  (** every other position *)
}

(** Seeds at every body position of the rules of [preds] where [delta]
    finds a relation; [rules] and [inputs] as in {!seed}. *)
let seeds ~rules ~inputs ~delta preds =
  List.concat_map
    (fun head ->
      List.concat_map
        (fun (rule : Compile.t) ->
          List.concat
            (List.mapi
               (fun pos lit ->
                 match delta lit with
                 | Some rel ->
                   [ { head; rule; at = Some (pos, rel); inputs = inputs rule pos } ]
                 | None -> [])
               (Array.to_list rule.clits)))
        (rules head))
    preds

let run s at emit =
  match at with
  | None -> Rule_eval.eval ~inputs:s.inputs ~emit s.rule
  | Some (pos, part) ->
    let inputs j =
      if j = pos then
        Rule_eval.Enumerate (Relation_view.concrete part, Rule_eval.identity_count)
      else s.inputs j
    in
    Rule_eval.eval ~seed:pos ~inputs ~emit s.rule

(** What one task did: its wall time, the Δ-tuples it enumerated (the
    chunk's cardinality), the tuples it emitted, and the work counters of
    the domain that ran it — that domain's own shards, so concurrent
    tasks never leak into the sample. *)
type sample = { wall_ns : int; din : int; dout : int; work : Stats.snapshot }

let measure s at buf =
  let before = Stats.local_snapshot () and t0 = Unix.gettimeofday () in
  let dout = ref 0 in
  run s at (fun tup c ->
      incr dout;
      Relation.add buf tup c);
  {
    wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
    din = (match at with None -> 0 | Some (_, part) -> Relation.cardinal part);
    dout = !dout;
    work = Stats.local_since before;
  }

(** Evaluate one (seed × chunk) into a private buffer.  When attribution
    or tracing is on, the task is one [rule] span and returns its
    {!sample}, which the span's args and the attribution fold share. *)
let task s at () =
  let buf = Relation.create (Array.length s.rule.chead) in
  if not (Attribution.enabled () || Trace.enabled ()) then begin
    run s at (Relation.add buf);
    (buf, None)
  end
  else begin
    let sample = ref None in
    Trace.span "rule" ~cat:"rule_eval"
      ~args:(fun () ->
        match !sample with
        | None -> []
        | Some m ->
          [
            ("rule", s.rule.name);
            ("derivations", string_of_int m.work.snap_derivations);
            ("probes", string_of_int m.work.snap_probes);
            ("scanned", string_of_int m.work.snap_tuples_scanned);
          ])
      (fun () -> sample := Some (measure s at buf));
    (buf, !sample)
  end

let attribute rule m =
  Attribution.add ~rule ~wall_ns:m.wall_ns ~din:m.din ~dout:m.dout
    ~probes:m.work.snap_probes ~scanned:m.work.snap_tuples_scanned
    ~derivations:m.work.snap_derivations ~index_builds:m.work.snap_index_builds

(** One round: seeds with an empty delta are dropped; the rest are
    forced, split into [2 × domains] chunks (one with a single domain),
    evaluated across the pool, and their buffers committed in task
    order, each task's sample folded into the open attribution batch
    just before its buffer. *)
let round ~(commit : string -> Relation.t -> unit) (seeds : seed list) =
  let chunks = if Ivm_par.sequential () then 1 else 2 * Ivm_par.domains () in
  let tasks =
    List.concat_map
      (fun s ->
        match s.at with
        | Some (_, rel) when Relation.is_empty rel -> []
        | _ ->
          Array.iteri
            (fun j lit ->
              match (lit, s.at) with
              | Compile.Ccmp _, _ -> ()
              | _, Some (pos, _) when j = pos -> ()
              | _ -> ignore (s.inputs j))
            s.rule.clits;
          (match s.at with
          | None -> [ (s, None) ]
          | Some (pos, rel) ->
            List.map
              (fun part -> (s, Some (pos, part)))
              (Array.to_list (split rel ~chunks))))
      seeds
    |> Array.of_list
  in
  let outs = Ivm_par.parallel_map (Array.map (fun (s, at) -> task s at) tasks) in
  Array.iteri
    (fun k (buf, sample) ->
      let s = fst tasks.(k) in
      Option.iter (attribute s.rule.name) sample;
      commit s.head buf)
    outs

(** A fixpoint engine's metric series ([ivm_fixpoint_rounds_total] and
    [ivm_fixpoint_delta_size], labelled [engine]) and, optionally, the
    name of the trace instant marking each round. *)
type engine = {
  rounds : Metrics.counter;
  sizes : Metrics.histogram;
  trace : string option;
}

let engine ?trace name =
  let labels = [ ("engine", name) ] in
  {
    rounds = Metrics.counter ~labels "ivm_fixpoint_rounds_total";
    sizes = Metrics.histogram ~labels "ivm_fixpoint_delta_size";
    trace;
  }

(** [fixpoint engine ~preds ~commit ~step init] runs [init] as round 0,
    then round [step n frontier] for n = 1, 2, … while the frontier of
    some predicate of [preds] is non-empty.  [commit p buf ~next] folds a
    task's buffer into the caller's state and adds what is new for [p] to
    [next], which becomes [p]'s frontier for the following round
    ([frontier p] is [None] when nothing was committed to [p]). *)
let fixpoint eng ~preds
    ~(commit : string -> Relation.t -> next:Relation.t -> unit)
    ~(step : int -> (string -> Relation.t option) -> seed list) (init : seed list) =
  let run seeds =
    let next = Hashtbl.create 4 in
    round seeds ~commit:(fun p buf ->
        let n =
          match Hashtbl.find_opt next p with
          | Some n -> n
          | None ->
            let n = Relation.create (Relation.arity buf) in
            Hashtbl.replace next p n;
            n
        in
        commit p buf ~next:n);
    Hashtbl.find_opt next
  in
  let size frontier p = Option.fold ~none:0 ~some:Relation.cardinal (frontier p) in
  let rec loop n frontier =
    if List.exists (fun p -> size frontier p > 0) preds then begin
      Metrics.inc eng.rounds;
      List.iter (fun p -> Metrics.observe eng.sizes (size frontier p)) preds;
      Option.iter
        (fun name ->
          Trace.instant name ~args:(fun () ->
              ("round", string_of_int n)
              :: List.map (fun p -> (p, string_of_int (size frontier p))) preds))
        eng.trace;
      loop (n + 1) (run (step n frontier))
    end
  in
  loop 1 (run init)
