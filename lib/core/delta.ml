(** Delta-rule machinery shared by Counting, Recursive counting and DRed,
    and the one driver that runs them:

    - the maintenance {!ctx} tracks, per predicate, the full count delta
      accumulated this round; "old" views read the stored relations, "new"
      views read old ⊎ delta through an overlay (no copying);
    - {!neg_delta} is Definition 6.1: [Δ(¬Q)] computed from [Δ(Q)], [Q]
      and [Qν] alone — the delta literal can stay first in the join order
      without evaluating the positive subgoals of the rule;
    - {!agg_delta} caches Algorithm 6.1's [Δ(T)] per GROUPBY spec;
    - {!rule_seeds} wires the delta rules of Definition 4.1 for
      {!Ivm_eval.Par_eval.round}: positions before the delta read new
      views, the delta position enumerates the change, positions after
      read old views;
    - {!choose} is [Auto]'s cost rule and {!reevaluate} its other branch:
      a unit whose input delta is large is re-evaluated from its
      finished inputs instead of maintained (the paper's §1 heuristic of
      inertia, per unit);
    - {!maintain} is the one batch loop: normalize, seed the base deltas,
      one {!step} per unit in dependency order, {!commit}. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Compile = Ivm_eval.Compile
module Rule_eval = Ivm_eval.Rule_eval
module Grouping = Ivm_eval.Grouping
module Par_eval = Ivm_eval.Par_eval
module Seminaive = Ivm_eval.Seminaive
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace

type version = Old | Mid | New

type ctx = {
  db : Database.t;
  full : (string, Relation.t) Hashtbl.t;
      (** per predicate: the count delta accumulated this batch (base
          deltas at entry, derived deltas as they are computed; a
          recursive unit's grow in place between rounds) *)
  propagated : (string, Relation.t) Hashtbl.t;
      (** the delta enumerated at delta positions: equal to [full] under
          duplicate semantics; under set semantics the ±1 set transition
          (boxed statement 2 of Algorithm 4.1) *)
  neg_deltas : (string, Relation.t) Hashtbl.t;  (** Definition 6.1 cache *)
  agg_deltas : (string, Relation.t) Hashtbl.t;  (** Algorithm 6.1 cache *)
  grouped : (string, Relation.t) Hashtbl.t;  (** old/new grouped relations *)
  mids : (string, Relation.t) Hashtbl.t;  (** overlays of the [Mid] version *)
}

let create (db : Database.t) : ctx =
  {
    db;
    full = Hashtbl.create 16;
    propagated = Hashtbl.create 16;
    neg_deltas = Hashtbl.create 8;
    agg_deltas = Hashtbl.create 8;
    grouped = Hashtbl.create 8;
    mids = Hashtbl.create 8;
  }

let empty_rel ctx pred =
  Relation.create (Program.arity (Database.program ctx.db) pred)

let full_delta ctx pred =
  match Hashtbl.find_opt ctx.full pred with
  | Some r -> r
  | None -> empty_rel ctx pred

let propagated_delta ctx pred =
  match Hashtbl.find_opt ctx.propagated pred with
  | Some r -> r
  | None -> empty_rel ctx pred

let has_delta ctx pred =
  match Hashtbl.find_opt ctx.propagated pred with
  | Some r -> not (Relation.is_empty r)
  | None -> false

(** Only [pred]'s set transitions propagate: set semantics, or a
    DISTINCT view. *)
let set_propagation ctx pred =
  Database.semantics ctx.db = Database.Set_semantics || Database.is_distinct ctx.db pred

(** [set_delta ctx pred ~full] records [pred]'s delta for this round and
    derives the propagated version per the database's semantics, unless
    the caller passes it as [?propagated]. *)
let set_delta ?propagated ctx pred ~full =
  Hashtbl.replace ctx.full pred full;
  let prop =
    match propagated with
    | Some prop -> prop
    | None when not (set_propagation ctx pred) -> full
    | None ->
      (* set(Pν) − set(P): only sign transitions propagate. *)
      let stored = Database.relation ctx.db pred in
      let out = Relation.create (Relation.arity full) in
      Relation.iter
        (fun tup c ->
          let before = Relation.count stored tup in
          let after = before + c in
          if before <= 0 && after > 0 then Relation.add out tup 1
          else if before > 0 && after <= 0 then Relation.add out tup (-1))
        full;
      out
  in
  Hashtbl.replace ctx.propagated pred prop

(** Install an empty delta for each predicate of a recursive unit; the
    unit's maintenance grows it in place between rounds. *)
let open_unit ctx preds =
  List.iter (fun p -> Hashtbl.replace ctx.full p (empty_rel ctx p)) preds

let old_view ctx pred = Database.view ctx.db pred

let new_view ctx pred =
  match Hashtbl.find_opt ctx.full pred with
  | Some delta -> Relation_view.overlay (Database.relation ctx.db pred) delta
  | None -> Database.view ctx.db pred

let view ctx version pred =
  match version with
  | Old -> old_view ctx pred
  | New -> new_view ctx pred
  | Mid -> assert false (* [inputs] builds the Mid overlays itself *)

(** Definition 6.1.  [Δ(¬Q)] holds [t] with count +1 when [t] was deleted
    outright from [Q] (so [¬q(t)] became true) and with −1 when [t] was
    inserted into a previously-empty [Q] slot.  Only tuples of [Δ(Q)] can
    appear.  When [Q]'s set transitions propagate, that is [Q]'s
    propagated delta negated; otherwise each tuple of [Δ(Q)] is looked
    up in the stored [Q]. *)
let neg_delta ctx pred =
  match Hashtbl.find_opt ctx.neg_deltas pred with
  | Some r -> r
  | None ->
    let out =
      if set_propagation ctx pred then Relation.negate (propagated_delta ctx pred)
      else begin
        let out = empty_rel ctx pred in
        let stored = Database.relation ctx.db pred in
        Relation.iter
          (fun tup c ->
            let before = Relation.count stored tup in
            let after = before + c in
            if before > 0 && after <= 0 then Relation.add out tup 1
            else if before <= 0 && after > 0 then Relation.add out tup (-1))
          (full_delta ctx pred);
        out
      end
    in
    Hashtbl.replace ctx.neg_deltas pred out;
    out

(** The grouped relation [T] of [spec] over the old or new version of its
    source, cached per spec signature. *)
let grouped ctx version (spec : Compile.agg_spec) =
  let tag =
    (match version with Old -> "old|" | New -> "new|" | Mid -> assert false)
    ^ spec.gsignature
  in
  match Hashtbl.find_opt ctx.grouped tag with
  | Some r -> r
  | None ->
    let mult = Database.mult_for ctx.db spec.gsource.cpred in
    let r = Grouping.compute ~mult (view ctx version spec.gsource.cpred) spec in
    Hashtbl.replace ctx.grouped tag r;
    r

(** Algorithm 6.1: [Δ(T)] for one GROUPBY spec, cached.  When the database
    carries a persistent aggregate index for the spec
    ({!Database.register_agg_index}), the delta comes from the per-group
    accumulators in [O(|Δ| log)]; otherwise touched groups are recomputed
    from the source relation (index-assisted). *)
let agg_delta ctx (spec : Compile.agg_spec) =
  match Hashtbl.find_opt ctx.agg_deltas spec.gsignature with
  | Some r -> r
  | None ->
    let pred = spec.gsource.cpred in
    let r =
      match Database.agg_index ctx.db spec with
      | Some idx ->
        (* the index consumes the propagated regime: count deltas under
           duplicates, ±1 set transitions under set semantics *)
        Ivm_eval.Agg_index.delta_preview idx (propagated_delta ctx pred)
      | None ->
        let mult = Database.mult_for ctx.db pred in
        Grouping.delta ~mult ~old_view:(old_view ctx pred)
          ~new_view:(new_view ctx pred) ~delta_u:(full_delta ctx pred) spec
    in
    Hashtbl.replace ctx.agg_deltas spec.gsignature r;
    r

(** The delta relation enumerated when [lit] is the seed position. *)
let seed_relation ctx (lit : Compile.clit) =
  match lit with
  | Compile.Catom a -> propagated_delta ctx a.cpred
  | Compile.Cneg a -> neg_delta ctx a.cpred
  | Compile.Cagg (spec, _) -> agg_delta ctx spec
  | Compile.Ccmp _ -> assert false

(** The [Mid] overlay of [base] keyed [key], its delta built once per
    batch. *)
let mid ctx key base delta =
  Relation_view.overlay base
    (match Hashtbl.find_opt ctx.mids key with
    | Some r -> r
    | None ->
      let r = delta () in
      Hashtbl.replace ctx.mids key r;
      r)

(** Subgoal input of body position [j] of [cr], read at version
    [version j].  [Mid] holds what is true both before and after the
    batch: a positive atom's stored tuples less its deletions, a negated
    atom absent from both versions, a grouped relation's old tuples less
    the groups that changed. *)
let inputs ctx (cr : Compile.t) (version : int -> version) j =
  match (cr.clits.(j), version j) with
  | Compile.Catom a, Mid ->
    let stored = Database.relation ctx.db a.cpred in
    Rule_eval.Enumerate
      ( mid ctx ("-" ^ a.cpred) stored (fun () ->
            let out = empty_rel ctx a.cpred in
            Relation.iter
              (fun tup c -> if c < 0 then Relation.add out tup (-Relation.count stored tup))
              (propagated_delta ctx a.cpred);
            out),
        Database.mult_for ctx.db a.cpred )
  | Compile.Catom a, v ->
    Rule_eval.Enumerate (view ctx v a.cpred, Database.mult_for ctx.db a.cpred)
  | Compile.Cneg a, Mid ->
    Rule_eval.Filter_absent
      (mid ctx ("+" ^ a.cpred) (Database.relation ctx.db a.cpred) (fun () ->
           Relation.positive_part (propagated_delta ctx a.cpred)))
  | Compile.Cneg a, v -> Rule_eval.Filter_absent (view ctx v a.cpred)
  | Compile.Cagg (spec, _), Mid ->
    Rule_eval.Enumerate
      ( mid ctx ("g" ^ spec.gsignature) (grouped ctx Old spec) (fun () ->
            Relation.negate (Relation.negative_part (agg_delta ctx spec))),
        Rule_eval.identity_count )
  | Compile.Cagg (spec, _), v ->
    Rule_eval.Enumerate
      (Relation_view.concrete (grouped ctx v spec), Rule_eval.identity_count)
  | Compile.Ccmp _, _ -> assert false

(** The delta rules of Definition 4.1 (extended to negation per
    Section 6.1 cases 1–3 and to aggregation per Section 6.2) for every
    rule of [pred]: one seed per changeable body literal [i], enumerating
    its delta, with positions before [i] reading new views and positions
    after reading old views. *)
let rule_seeds ctx pred =
  let program = Database.program ctx.db in
  Par_eval.seeds
    ~rules:(fun p -> List.map (Database.compile ctx.db) (Program.rules_for program p))
    ~inputs:(fun cr i -> inputs ctx cr (fun j -> if j < i then New else Old))
    ~delta:(function
      | Compile.Ccmp _ -> None
      | Compile.Catom a when not (has_delta ctx a.cpred) -> None
      | lit -> Some (seed_relation ctx lit))
    [ pred ]

(** [Δ(pred)]: every delta rule of [pred] evaluated across the domain
    pool, ⊎-merged in task order. *)
let derive ctx pred =
  (* the first task's buffer becomes the result: one copy fewer *)
  let out = ref None in
  Par_eval.round (rule_seeds ctx pred) ~commit:(fun _ buf ->
      match !out with
      | None -> out := Some buf
      | Some into -> Relation.union_into ~into buf);
  match !out with Some r -> r | None -> empty_rel ctx pred

(** Commit all accumulated full deltas into the stored relations, one
    lookup per tuple ({!Relation.patch_count}).  [?track] is handed each
    committed delta whole — every count in it is the applied difference,
    since this commit refuses to clamp — the snapshot publisher's
    net-change feed.
    @raise Invalid_argument if a committed count would go negative — the
    caller violated Lemma 4.1's precondition. *)
let commit ?track ctx =
  let lineage = Ivm_prov.Prov.enabled () in
  Hashtbl.iter
    (fun pred delta ->
      if not (Relation.is_empty delta) then begin
        let stored = Database.relation ctx.db pred in
        Relation.iter
          (fun tup c ->
            let before =
              try Relation.patch_count stored tup c
              with Invalid_argument msg ->
                invalid_arg
                  (msg ^ " in " ^ pred ^ "; deletions must be a subset of the database")
            in
            if lineage then
              let c' = before + c in
              if before <= 0 && c' > 0 then
                Ivm_prov.Prov.on_transition ~pred tup `Derived
              else if before > 0 && c' <= 0 then
                Ivm_prov.Prov.on_transition ~pred tup `Deleted)
          delta;
        Option.iter (fun col -> Changes.absorb col pred delta) track
      end)
    ctx.full;
  (* Registered aggregate indexes consume the propagated regime. *)
  let transitions =
    Hashtbl.fold (fun pred delta acc -> (pred, delta) :: acc) ctx.propagated []
  in
  Database.refresh_agg_indexes ctx.db transitions

(* ------------------------------------------------------------------ *)
(* Auto's cost rule: re-evaluate a unit whose input delta is large      *)
(* ------------------------------------------------------------------ *)

(** A unit's maintenance step ({!maintain} runs one per unit); the cost
    rule's threshold depends on it. *)
type step =
  | Derive
  | Phases of (ctx -> string list -> (string * int * int) list)
  | Fixpoint of (ctx -> string list -> unit)

(** The input ratio at and above which [Auto] re-evaluates a unit.  Both
    constants come from EXPERIMENTS.md's sweeps, each side timed
    interleaved on fresh copies of one warmed state (median of 5–7), and
    each sits between the last row the incremental branch won and the
    first it lost, in every run made.

    - DRed's phases, 0.07: DRed's cost is the region it over-deletes and
      rederives, not |Δ| (Hu, Motik & Horrocks, arXiv:1711.03987), and
      that region soon outgrows a re-evaluation of the unit.  On E25's
      closure sweep (10 × 40 layered DAG, 709 [link] tuples), in two
      runs, DRed won at ratio 0.059 (21 edges swapped: 45.9 and 36.4 ms
      against 51.4 and 43.7 ms re-evaluating) and lost at 0.079 (28
      edges: 71.6 and 57.5 ms against 52.7 and 43.4 ms).  A live one-edge
      swap on perfbench's [closure_dred] is 2/720 = 0.003; its
      300-record recovery tail nets 0.67–0.69.  Counted DRed, the DRed
      [Auto] runs, shares the constant: it over-deletes the same region
      and only drops the backward rederivation join (E25's
      [dred-counted] column).
    - Counting's delta rules, 0.35: Counting costs O(|Δ|) per view, and a
      re-evaluated view still pays for its whole delta (a diff against
      the stored view and a per-tuple commit), so the crossover comes
      late.  On E9 ([hop] over 3,927 [link] tuples, a share deleted), in
      three runs, Counting won at 30% deleted (30–49 ms against 37–63 ms
      re-evaluating) and lost at 40% (47–58 ms against 41–55 ms).
      [negation_counting]'s live batches and log records are 8/8,000 =
      0.001. *)
let threshold = function Derive -> 0.35 | Phases _ | Fixpoint _ -> 0.07

type choice = Incremental | Reevaluate

let choice_name = function Incremental -> "incremental" | Reevaluate -> "reevaluate"

let choices_c =
  List.map
    (fun c ->
      (c, Metrics.counter ~labels:[ ("choice", choice_name c) ] "ivm_auto_choice_total"))
    [ Incremental; Reevaluate ]

(** The predicates the unit's rule bodies read outside the unit (a
    GROUPBY subgoal reads its source). *)
let unit_inputs ctx unit_preds =
  let program = Database.program ctx.db in
  List.concat_map
    (fun p ->
      List.concat_map
        (fun r ->
          List.filter_map Compile.lit_pred
            (Array.to_list (Database.compile ctx.db r).Compile.clits))
        (Program.rules_for program p))
    unit_preds
  |> List.filter (fun q -> not (List.mem q unit_preds))
  |> List.sort_uniq String.compare

(** Net size of the unit's input deltas (base changes and the
    propagated deltas of lower units) over the stored size of those
    inputs. *)
let input_ratio ctx unit_preds =
  let changed, stored =
    List.fold_left
      (fun (changed, stored) q ->
        ( changed + Relation.cardinal (propagated_delta ctx q),
          stored + Relation.cardinal (Database.relation ctx.db q) ))
      (0, 0) (unit_inputs ctx unit_preds)
  in
  float_of_int changed /. float_of_int (max 1 stored)

(** [Auto]'s choice for one unit, made before maintaining it with
    [step]: re-evaluate when the input ratio reaches the step's
    {!threshold}.  With [~auto:false] (the explicit algorithms) the
    choice is always [Incremental].  Returns the choice and the ratio;
    under [Auto] the choice counts in [ivm_auto_choice_total{choice}]. *)
let choose ctx step ~auto unit_preds =
  let ratio = input_ratio ctx unit_preds in
  let choice =
    if auto && ratio >= threshold step then Reevaluate else Incremental
  in
  if auto then Metrics.inc (List.assoc choice choices_c);
  (choice, ratio)

(** Re-evaluate a unit from its finished inputs and install its delta:
    the evaluator of the initial materialization ({!Seminaive}) run over
    the unit's rules into fresh relations, every relation outside the
    unit read at [New], a recursive unit with one-step counts.  The delta
    installed with {!set_delta} is fresh counts minus stored counts:
    Theorem 4.1's [Δ(P)], since the stored counts of Counting's delta
    rules and of counted DRed, the two steps [Auto] runs, are exact.  The
    batch then commits through {!commit} like any other. *)
let reevaluate ctx unit_preds =
  let program = Database.program ctx.db in
  let cache = Seminaive.Agg_cache.create () in
  (* each changed input is materialized once: the evaluation probes it
     many times, and an overlay pays for its delta on every probe *)
  let inputs =
    List.map
      (fun q ->
        ( q,
          match new_view ctx q with
          | Relation_view.Overlay _ as v -> Relation_view.concrete (Relation_view.force v)
          | v -> v ))
      (unit_inputs ctx unit_preds)
  in
  let resolve q = List.assoc q inputs in
  let fresh =
    match unit_preds with
    | [ p ] when not (Program.recursive program p) ->
      [ (p, Seminaive.eval_nonrecursive ~resolve ctx.db ~cache p) ]
    | _ -> Seminaive.eval_recursive_unit ~resolve ~counts:true ctx.db ~cache unit_preds
  in
  List.iter
    (fun (p, fresh) ->
      let stored = Database.relation ctx.db p in
      let full = Relation.create (Relation.arity stored) in
      (* the propagated delta is built in the same two passes: every
         stored count is positive, and a tuple new to [p] had none *)
      let sets = set_propagation ctx p in
      let prop = if sets then Relation.create (Relation.arity stored) else full in
      Relation.iter
        (fun tup c ->
          let c' = Relation.count fresh tup in
          if c' <> c then begin
            Relation.add full tup (c' - c);
            if sets && c' <= 0 then Relation.add prop tup (-1)
          end)
        stored;
      Relation.iter
        (fun tup c ->
          if not (Relation.mem stored tup) then begin
            Relation.add full tup c;
            if sets then Relation.add prop tup 1
          end)
        fresh;
      set_delta ctx p ~full ~propagated:prop)
    fresh

(* ------------------------------------------------------------------ *)
(* The driver: one batch loop, one step per unit                        *)
(* ------------------------------------------------------------------ *)

type algorithm = {
  batches : Metrics.counter;
  span : string;
  step : recursive:bool -> step;
}

let largest_threshold alg program =
  List.fold_left
    (fun acc unit_preds ->
      max acc
        (threshold (alg.step ~recursive:(Program.recursive program (List.hd unit_preds)))))
    0. (Program.recursive_units program)

type report = {
  base_deltas : (string * Relation.t) list;
  view_deltas : (string * Relation.t) list;
  propagated_deltas : (string * Relation.t) list;
  overdeleted : (string * int) list;
  rederived : (string * int) list;
}

let changed_views report = List.map fst report.view_deltas

(** Per maintained view per batch: |Δ(P)| (Theorem 4.1 says this is
    exactly the number of changed view tuples — the optimality metric). *)
let delta_h = Metrics.histogram "ivm_counting_delta_size"

(** The step of one unit under [alg], [Auto]'s choice made first.  A
    [Derive] unit no changed base relation reaches is skipped. *)
let maintain_unit ctx alg ~auto ~affected ~sizes unit_preds =
  let program = Database.program ctx.db in
  let p = List.hd unit_preds and unit_name = String.concat "," unit_preds in
  let stratum = Program.stratum program p in
  match alg.step ~recursive:(Program.recursive program p) with
  | Derive when not (List.mem p affected) -> ()
  | step -> (
    Ivm_obs.Attribution.set_context ~stratum ~phase:"delta";
    match step with
    | Derive ->
      let choice, ratio = choose ctx Derive ~auto unit_preds in
      Trace.span "counting.view"
        ~args:(fun () ->
          [
            ("view", p);
            ("stratum", string_of_int stratum);
            ("choice", choice_name choice);
            ("input_ratio", Printf.sprintf "%.4f" ratio);
            ("delta", string_of_int (Relation.cardinal (full_delta ctx p)));
            ( "propagated",
              string_of_int (Relation.cardinal (propagated_delta ctx p)) );
          ])
        (fun () ->
          match choice with
          | Reevaluate -> reevaluate ctx unit_preds
          | Incremental -> set_delta ctx p ~full:(derive ctx p));
      Metrics.observe delta_h (Relation.cardinal (full_delta ctx p))
    | Phases phases as step ->
      let choice, ratio = choose ctx step ~auto unit_preds in
      Trace.span "dred.unit"
        ~args:(fun () ->
          [
            ("unit", unit_name);
            ("choice", choice_name choice);
            ("input_ratio", Printf.sprintf "%.4f" ratio);
          ])
        (fun () ->
          match choice with
          | Reevaluate ->
            Trace.span "dred.reevaluate"
              ~args:(fun () -> [ ("unit", unit_name) ])
              (fun () -> reevaluate ctx unit_preds)
          | Incremental -> sizes := phases ctx unit_preds @ !sizes)
    | Fixpoint fix ->
      Trace.span "rc.fixpoint"
        ~args:(fun () -> [ ("unit", unit_name) ])
        (fun () -> fix ctx unit_preds))

(** The one batch loop of every incremental algorithm: normalize the
    batch, open the context with the base deltas, run each unit's step in
    dependency order, commit, report. *)
let maintain ?track ?(auto = false) alg (db : Database.t) (changes : Changes.t) : report =
  Metrics.inc alg.batches;
  let program = Database.program db in
  let normalized = Changes.normalize_base db changes in
  (* only views transitively depending on a changed base relation can
     change *)
  let affected = Program.affected_views program ~changed:(List.map fst normalized) in
  let ctx = create db in
  List.iter (fun (pred, delta) -> set_delta ctx pred ~full:delta) normalized;
  let sizes = ref [] in
  Trace.span alg.span
    ~args:(fun () ->
      [
        ("affected_views", string_of_int (List.length affected));
        ("base_tuples", string_of_int (Changes.total_tuples normalized));
      ])
    (fun () ->
      List.iter
        (maintain_unit ctx alg ~auto ~affected ~sizes)
        (Program.recursive_units program));
  let collect table =
    List.filter_map
      (fun p ->
        match Hashtbl.find_opt table p with
        | Some r when not (Relation.is_empty r) -> Some (p, r)
        | _ -> None)
      (Program.derived_preds program)
  in
  let view_deltas = collect ctx.full and propagated_deltas = collect ctx.propagated in
  commit ?track ctx;
  let sized f =
    List.sort compare
      (List.filter_map (fun s -> match f s with _, 0 -> None | ps -> Some ps) !sizes)
  in
  {
    base_deltas = normalized;
    view_deltas;
    propagated_deltas;
    overdeleted = sized (fun (p, d, _) -> (p, d));
    rederived = sized (fun (p, _, pb) -> (p, pb));
  }
