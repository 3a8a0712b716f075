(** Ad-hoc conjunctive queries against the materialized database — the
    "persistent queries" application of the paper's introduction, made
    one-shot: because every view is materialized and exact, a query is a
    single join over stored relations, never a recursive evaluation.

    A query is a rule body ([hop(a, X), link(X, Y), Y != a]); its answer
    columns are the positively-bound variables in order of first
    occurrence, and its rows carry derivation counts under duplicate
    semantics. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
open Ivm_datalog

type result = {
  columns : string list;  (** answer variables, in first-occurrence order *)
  rows : Relation.t;  (** one tuple per answer, with derivation counts *)
}

(** Run a query body against the database's stored relations.
    @raise Safety.Unsafe when the body is unsafe (e.g. a negated or
    comparison variable never positively bound);
    @raise Program.Program_error on unknown predicates. *)
let run (db : Database.t) (body : Ast.literal list) : result =
  let program = Database.program db in
  List.iter
    (fun lit ->
      match lit with
      | Ast.Lpos a | Ast.Lneg a -> ignore (Program.pred_info program a.Ast.pred)
      | Ast.Lagg agg -> ignore (Program.pred_info program agg.Ast.agg_source.Ast.pred)
      | Ast.Lcmp _ -> ())
    body;
  let columns, rule = Safety.check_query body in
  let cr = Compile.compile rule in
  let cache = Seminaive.Agg_cache.create () in
  let inputs =
    Seminaive.make_inputs ~resolve:(Database.view db)
      ~mult_for:(Database.mult_for db) ~cache ~version:"query" cr
  in
  let rows = Relation.create (List.length columns) in
  Rule_eval.eval ~inputs ~emit:(fun tup c -> Relation.add rows tup c) cr;
  { columns; rows }

(** Run a full query rule: the head's argument expressions are the output
    columns (projection and computed columns), [columns] their display
    names.  Used by the SQL layer for ad-hoc SELECTs. *)
let run_rule (db : Database.t) (rule : Ast.rule) ~(columns : string list) : result =
  if List.length columns <> List.length rule.Ast.head.Ast.args then
    invalid_arg "Query.run_rule: column/argument count mismatch";
  Safety.check_rule rule;
  let cr = Compile.compile rule in
  let cache = Seminaive.Agg_cache.create () in
  let inputs =
    Seminaive.make_inputs ~resolve:(Database.view db)
      ~mult_for:(Database.mult_for db) ~cache ~version:"query" cr
  in
  let rows = Relation.create (List.length columns) in
  Rule_eval.eval ~inputs ~emit:(fun tup c -> Relation.add rows tup c) cr;
  { columns; rows }

(** Parse and run a query text like ["hop(a, X), link(X, Y)"]. *)
let run_text (db : Database.t) (src : string) : result =
  run db (Parser.parse_body src)

(** True when the (necessarily ground) query body has at least one
    derivation — boolean queries like ["link(a, b)"]. *)
let holds (db : Database.t) (src : string) : bool =
  let r = run_text db src in
  Relation.exists (fun _ c -> c > 0) r.rows

let pp ppf (r : result) =
  if r.columns = [] then
    Format.fprintf ppf "%s"
      (if Relation.is_empty r.rows then "false" else "true")
  else begin
    Format.fprintf ppf "%s@."
      (String.concat ", " r.columns);
    List.iter
      (fun (tup, c) ->
        if c = 1 then Format.fprintf ppf "%a@." Tuple.pp tup
        else Format.fprintf ppf "%a x%d@." Tuple.pp tup c)
      (Relation.to_sorted_list r.rows)
  end
