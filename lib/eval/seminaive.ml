(** Initial bottom-up materialization: naive single-pass for nonrecursive
    predicates (their strata are below them, so one evaluation of each rule
    suffices), semi-naive iteration [Ull89] inside recursive components.

    Counts: a nonrecursive predicate stores its derivation counts (under
    set semantics these are counts relative to lower strata counted once —
    Section 5.1; under duplicate semantics full multiplicities).  Recursive
    predicates are materialized with set semantics — the paper's counting
    algorithm is proposed for nonrecursive views only, and duplicate
    semantics on recursion may not terminate (Section 8) — with count 1
    per tuple, or with [~counts:true] with their one-step derivation
    counts (Section 5.1's clamp applied inside the unit: the rule
    instantiations whose body holds), which counted DRed maintains.  The
    semi-naive split enumerates each instantiation exactly once, so the
    counts cost no extra pass. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Program = Ivm_datalog.Program
module Trace = Ivm_obs.Trace
open Compile

let engine = Par_eval.engine ~trace:"seminaive.round" "seminaive"

exception Recursive_duplicates of string

(** Shared per-round cache of grouped relations, keyed by spec signature
    and a caller-chosen version tag ("old"/"new"/…). *)
module Agg_cache = struct
  type t = (string, Relation.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let grouped (cache : t) ~version ~mult view (spec : agg_spec) =
    let key = version ^ "|" ^ spec.gsignature in
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
      let r = Grouping.compute ~mult view spec in
      Hashtbl.add cache key r;
      r
end

(** Subgoal inputs resolving every predicate through [resolve], computing
    grouped relations through [cache] under version [version]. *)
let make_inputs ~(resolve : string -> Relation_view.t)
    ~(mult_for : string -> int -> int) ~cache ~version (cr : Compile.t) :
    int -> Rule_eval.subgoal_input =
 fun i ->
  match cr.clits.(i) with
  | Catom a -> Rule_eval.Enumerate (resolve a.cpred, mult_for a.cpred)
  | Cneg a -> Rule_eval.Filter_absent (resolve a.cpred)
  | Cagg (spec, _) ->
    let t =
      Agg_cache.grouped cache ~version
        ~mult:(mult_for spec.gsource.cpred)
        (resolve spec.gsource.cpred) spec
    in
    Rule_eval.Enumerate (Relation_view.concrete t, Rule_eval.identity_count)
  | Ccmp _ -> assert false

(** Evaluate all rules of one nonrecursive predicate against the current
    database state, or against the relations [resolve] returns; returns
    its full materialization.  Rule bodies fan out across the domain
    pool, each into a private relation ⊎-merged in rule order. *)
let eval_nonrecursive ?resolve db ~cache pred =
  let program = Database.program db in
  (* the first task's buffer becomes the result: one copy fewer *)
  let out = ref None in
  Ivm_obs.Attribution.set_context ~stratum:(Program.stratum program pred)
    ~phase:"materialize";
  Trace.span "seminaive.materialize"
    ~args:(fun () ->
      [
        ("pred", pred);
        ("tuples", string_of_int (match !out with Some r -> Relation.cardinal r | None -> 0));
      ])
    (fun () ->
      Par_eval.round
        ~commit:(fun _ buf ->
          match !out with
          | None -> out := Some buf
          | Some into -> Relation.union_into ~into buf)
        (List.map
           (fun rule ->
             let rule = Database.compile db rule in
             let inputs =
               make_inputs
                 ~resolve:(Option.value resolve ~default:(Database.view db))
                 ~mult_for:(Database.mult_for db) ~cache ~version:"cur" rule
             in
             { Par_eval.head = pred; rule; at = None; inputs })
           (Program.rules_for program pred)));
  match !out with Some r -> r | None -> Relation.create (Program.arity program pred)

(** Semi-naive fixpoint for one recursive unit (an SCC of mutually
    recursive predicates), set semantics.  Relations outside the unit are
    read from the database (their strata are already materialized), or
    through [resolve].  With [~counts:true] each tuple's count is its
    number of one-step derivations, else 1. *)
let eval_recursive_unit ?resolve ?(counts = false) db ~cache (unit_preds : string list) :
    (string * Relation.t) list =
  let program = Database.program db in
  if Database.semantics db = Database.Duplicate_semantics then
    raise
      (Recursive_duplicates
         (Printf.sprintf
            "predicate %s is recursive: duplicate (counting) semantics may \
             not terminate on recursive views (Section 8); use set semantics"
            (List.hd unit_preds)));
  let in_unit p = List.mem p unit_preds in
  let outside = Option.value resolve ~default:(Database.view db) in
  (* one context for the whole unit: its predicates share a stratum *)
  Ivm_obs.Attribution.set_context
    ~stratum:(Program.stratum program (List.hd unit_preds))
    ~phase:"fixpoint";
  let totals = Hashtbl.create 4 in
  List.iter
    (fun p -> Hashtbl.replace totals p (Relation.create (Program.arity program p)))
    unit_preds;
  let rules p = List.map (Database.compile db) (Program.rules_for program p) in
  (* Round 0 evaluates every rule against the totals (empty for the unit's
     predicates).  Later rounds seed each occurrence of a unit predicate
     with its last delta: positions before the seed read the new totals,
     positions after read the previous totals (totals ⊎ −delta). *)
  let inputs ?(old = fun _ -> None) cr pos j =
    let resolve q =
      if not (in_unit q) then outside q
      else
        match old q with
        | Some minus when j > pos -> Relation_view.overlay (Hashtbl.find totals q) minus
        | _ -> Relation_view.concrete (Hashtbl.find totals q)
    in
    make_inputs ~resolve ~mult_for:(fun _ -> Rule_eval.set_count) ~cache
      ~version:"cur" cr j
  in
  let commit p buf ~next =
    let total = Hashtbl.find totals p in
    Relation.iter
      (fun tup c ->
        if c > 0 && not (Relation.mem total tup) then begin
          Relation.add next tup 1;
          Relation.add total tup (if counts then c else 1)
        end
        else if counts && c > 0 then Relation.add total tup c)
      buf
  in
  (* the previous totals hide the whole count of each frontier tuple *)
  let hide q frontier =
    let total = Hashtbl.find totals q in
    let minus = Relation.create (Relation.arity frontier) in
    Relation.iter (fun tup _ -> Relation.add minus tup (-Relation.count total tup)) frontier;
    minus
  in
  Par_eval.fixpoint engine ~preds:unit_preds ~commit
    ~step:(fun _ frontier ->
      let minus = List.map (fun q -> (q, Option.map (hide q) (frontier q))) unit_preds in
      Par_eval.seeds ~rules
        ~inputs:(inputs ~old:(fun q -> Option.join (List.assoc_opt q minus)))
        ~delta:(function Catom a when in_unit a.cpred -> frontier a.cpred | _ -> None)
        unit_preds)
    (List.concat_map
       (fun head ->
         List.map
           (fun rule -> { Par_eval.head; rule; at = None; inputs = inputs rule 0 })
           (rules head))
       unit_preds);
  List.map (fun p -> (p, Hashtbl.find totals p)) unit_preds

(** Materialize every derived predicate of the database's program from its
    base relations (overwrites previous materializations). *)
let evaluate ?counts (db : Database.t) : unit =
  Trace.span "seminaive.evaluate" (fun () ->
      let program = Database.program db in
      let cache = Agg_cache.create () in
      List.iter
        (fun unit_preds ->
          match unit_preds with
          | [ p ] when not (Program.recursive program p) ->
            Database.set_relation db p (eval_nonrecursive db ~cache p)
          | unit_preds ->
            List.iter
              (fun (p, rel) -> Database.set_relation db p rel)
              (Trace.span "seminaive.fixpoint"
                 ~args:(fun () -> [ ("unit", String.concat "," unit_preds) ])
                 (fun () -> eval_recursive_unit ?counts db ~cache unit_preds)))
        (Program.recursive_units program))
