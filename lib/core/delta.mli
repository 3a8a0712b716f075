(** Delta-rule machinery shared by Counting, Recursive counting and DRed,
    and the one driver that runs them: the per-batch maintenance context,
    Definition 6.1's [Δ(¬Q)], Algorithm 6.1's [Δ(T)], the wiring of one
    delta rule of Definition 4.1 (positions before the delta read new
    views, the delta position enumerates the change, positions after
    read old views), and the batch loop with [Auto]'s per-unit cost
    rule. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Database = Ivm_eval.Database
module Compile = Ivm_eval.Compile
module Rule_eval = Ivm_eval.Rule_eval

(** Which database a body position reads: before the batch, after it,
    or [Mid], what holds both before and after (the old relations less
    the batch's deletions).  Counted DRed's exact delta rules read [Mid]
    where a lost or a new derivation must be enumerated once. *)
type version = Old | Mid | New

type ctx = {
  db : Database.t;
  full : (string, Relation.t) Hashtbl.t;
      (** per predicate: the full count delta of this batch.  Recursive
          counting and DRed install a unit predicate's entry when its unit
          starts and grow it in place between rounds *)
  propagated : (string, Relation.t) Hashtbl.t;
      (** what delta positions enumerate: [full] under duplicate
          semantics, the ±1 set transition under set semantics (the boxed
          statement 2 of Algorithm 4.1) *)
  neg_deltas : (string, Relation.t) Hashtbl.t;  (** Definition 6.1 cache *)
  agg_deltas : (string, Relation.t) Hashtbl.t;  (** Algorithm 6.1 cache *)
  grouped : (string, Relation.t) Hashtbl.t;  (** old/new grouped relations *)
  mids : (string, Relation.t) Hashtbl.t;  (** overlays of the [Mid] version *)
}

val create : Database.t -> ctx

(** The accumulated full delta of a predicate (empty if unchanged). *)
val full_delta : ctx -> string -> Relation.t

(** Record a predicate's delta for this round; derives the propagated
    version from the database's semantics against the (uncommitted)
    stored relation, unless the caller already built it and passes it as
    [?propagated]. *)
val set_delta : ?propagated:Relation.t -> ctx -> string -> full:Relation.t -> unit

(** Install an empty delta for each predicate of a recursive unit; the
    unit's maintenance grows it in place between rounds (Recursive
    counting's accumulator, DRed's live delta). *)
val open_unit : ctx -> string list -> unit

(** [old ⊎ Δ] as a lazy overlay; collapses to the stored relation when the
    predicate has no delta. *)
val new_view : ctx -> string -> Relation_view.t

(** The delta relation enumerated when the literal is a seed position:
    the propagated delta of a positive atom; Definition 6.1's [Δ(¬Q)] of a
    negated atom ([t] with count +1 when deleted outright from [Q], −1
    when inserted into a previously-false slot — computable from [Δ(Q)],
    [Q], [Qν] alone, so the delta literal can stay first in the join
    order); Algorithm 6.1's [Δ(T)] of a GROUPBY literal (touching only the
    groups occurring in the source's delta).  The last two are cached.
    Raises on comparison literals (they carry no delta). *)
val seed_relation : ctx -> Compile.clit -> Relation.t

(** Subgoal input of body position [j] of a rule, read at version
    [version j] (GROUPBY literals read the grouped relation [T] over that
    version of the source, cached per spec; at [Mid] the old [T] less its
    changed groups, and a negated atom at [Mid] fails on a tuple true in
    either version); never called on a comparison literal. *)
val inputs : ctx -> Compile.t -> (int -> version) -> int -> Rule_eval.subgoal_input

(** The delta rules of every rule of a predicate, as round seeds
    (Definition 4.1, extended to negation and aggregation): one seed per
    changeable body literal, positions before it reading new views,
    positions after it old views. *)
val rule_seeds : ctx -> string -> Ivm_eval.Par_eval.seed list

(** Commit all accumulated deltas into the stored relations, one lookup
    per tuple.  [?track] is handed each committed delta whole ({!Changes.absorb}):
    the snapshot publisher's net-change feed.
    @raise Invalid_argument if a count would go negative (the caller
    violated Lemma 4.1's precondition). *)
val commit : ?track:Changes.collector -> ctx -> unit

(** {2 The driver}

    One batch loop serves every incremental algorithm: it normalizes the
    batch, opens a {!ctx} with the base deltas, runs one {!step} per
    maintenance unit ({!Ivm_datalog.Program.recursive_units}, in
    dependency order), commits through {!commit} and returns one
    {!report}.  The step depends only on the unit and the algorithm:
    Counting's delta rules on a nonrecursive unit under every count-exact
    algorithm, DRed's phases (the paper's on every unit under explicit
    DRed, counted DRed's on an SCC) or recursive counting's fixpoint on
    an SCC. *)

(** How the driver maintains one unit. *)
type step =
  | Derive
      (** Counting's delta rules, evaluated in one
          {!Ivm_eval.Par_eval.round} (a nonrecursive unit only); a unit no
          changed base relation reaches is skipped *)
  | Phases of (ctx -> string list -> (string * int * int) list)
      (** DRed's three phases, paper or counted, returning per predicate
          the overestimate and put-back sizes *)
  | Fixpoint of (ctx -> string list -> unit)
      (** recursive counting's fixpoint of delta rounds *)

(** An incremental algorithm, as the driver runs it. *)
type algorithm = {
  batches : Ivm_obs.Metrics.counter;  (** its [ivm_maintain_batches_total] *)
  span : string;  (** the batch's span *)
  step : recursive:bool -> step;  (** the step of a (non)recursive unit *)
}

(** The largest input-ratio threshold of [Auto]'s cost rule among the
    steps [alg] runs on [program]'s units: 0.35 when a unit runs
    Counting's delta rules, 0.07 when every unit is recursive and runs
    DRed's phases, 0 for a program without views.  Durable recovery
    under [Auto] evaluates the views from the recovered base relations
    when a log tail's net ratio reaches it. *)
val largest_threshold : algorithm -> Ivm_datalog.Program.t -> float

type report = {
  base_deltas : (string * Relation.t) list;
      (** the normalized base changes that were applied *)
  view_deltas : (string * Relation.t) list;
      (** per derived predicate, in name order: the full count delta [Δ(P)] *)
  propagated_deltas : (string * Relation.t) list;
      (** per derived predicate, in name order: the delta dependent views
          see — the ±1 set transition under set semantics, else [Δ(P)] *)
  overdeleted : (string * int) list;  (** DRed's overestimate sizes, if not 0 *)
  rederived : (string * int) list;  (** DRed's put-backs, if not 0 *)
}

(** Names of the views that changed. *)
val changed_views : report -> string list

(** Apply [changes] to [db] with [alg]: one step per unit, one commit.
    With [~auto:true] ([View_manager]'s [Auto]; default [false]) each
    [Derive] or [Phases] unit whose input ratio — the net size of its
    input deltas (base changes plus lower units' propagated deltas) over
    the stored size of those inputs — reaches its step's threshold is
    re-evaluated ({!reevaluate}) instead: the same [Δ(P)].  Each
    decision counts in [ivm_auto_choice_total{choice}].  [?track] is
    handed every committed delta whole ({!Changes.absorb}).
    @raise Changes.Invalid_changes on malformed change sets. *)
val maintain :
  ?track:Changes.collector ->
  ?auto:bool ->
  algorithm ->
  Database.t ->
  Changes.t ->
  report

(** Whether [Auto] maintained a unit through its step or re-evaluated
    it ([ivm_auto_choice_total]'s [choice] label). *)
type choice = Incremental | Reevaluate

val choice_name : choice -> string

(** Re-evaluate the unit into fresh relations, reading every other
    relation at [New] (a recursive unit with one-step counts), and
    install fresh minus stored counts as its delta with {!set_delta}:
    exact under Counting's delta rules and counted DRed, the steps [Auto]
    runs. *)
val reevaluate : ctx -> string list -> unit
