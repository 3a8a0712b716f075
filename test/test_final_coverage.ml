(** Last-mile coverage: translation internals, PF stats, report fields,
    empty-database behaviour. *)

open Util
module Sql = Ivm_sql.Sql_translate
module Pf = Ivm_baselines.Pf
module Changes = Ivm.Changes
module Dred = Ivm.Dred
module Rc = Ivm.Recursive_counting
module Vm = Ivm.View_manager

let translate_result_shape () =
  let r =
    Sql.translate
      {|
        CREATE TABLE link(s, d);
        CREATE VIEW hop(s, d) AS
          SELECT DISTINCT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
        CREATE VIEW strict(s, d) AS
          SELECT h.s, h.d FROM hop h
          WHERE NOT EXISTS (SELECT * FROM link l
                            WHERE l.s = h.s AND l.d = h.d);
        CREATE VIEW deg(s, n) AS
          SELECT l.s, COUNT(*) FROM link l GROUP BY l.s;
        INSERT INTO link VALUES (a, b);
      |}
  in
  Alcotest.(check (list (pair string (list string))))
    "tables" [ ("link", [ "s"; "d" ]) ] r.Sql.tables;
  Alcotest.(check (list string))
    "views in order" [ "hop"; "strict"; "deg" ]
    (List.map fst r.Sql.views);
  Alcotest.(check (list string)) "distinct views" [ "hop" ] r.Sql.distinct_views;
  Alcotest.(check int) "one fact batch" 1 (List.length r.Sql.facts);
  (* main rules for 3 views + 1 NOT EXISTS aux + 1 GROUP BY aux *)
  Alcotest.(check int) "five rules" 5 (List.length r.Sql.rules);
  let heads = List.map (fun ru -> ru.Ast.head.Ast.pred) r.Sql.rules in
  Alcotest.(check bool) "aux notexists rule" true
    (List.exists (fun h -> String.length h > 15
                           && String.sub h 0 15 = "strict_notexist") heads);
  Alcotest.(check bool) "aux group rule" true
    (List.exists (fun h -> String.length h > 8 && String.sub h 0 9 = "deg_group") heads)

let pf_granularity_stats () =
  let db = db_of_source {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- path(X, Z), link(Z, Y).
    link(a,b). link(b,c). link(c,d).
  |} in
  let changes =
    Changes.of_list (Database.program db)
      [
        ( "link",
          [ (Tuple.of_strs [ "a"; "b" ], -1); (Tuple.of_strs [ "b"; "c" ], -1);
            (Tuple.of_strs [ "d"; "e" ], 1) ] );
      ]
  in
  let db2 = Database.copy db in
  let per_tuple = Pf.maintain ~granularity:Pf.Per_tuple db changes in
  let per_pred = Pf.maintain ~granularity:Pf.Per_predicate db2 changes in
  Alcotest.(check int) "3 per-tuple passes" 3 per_tuple.Pf.passes;
  Alcotest.(check int) "1 per-pred pass" 1 per_pred.Pf.passes;
  Alcotest.(check bool) "same final state" true
    (Relation.equal_sets (rel db "path") (rel db2 "path"))

let dred_report_on_insertions () =
  let db = db_of_source {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- path(X, Z), link(Z, Y).
    link(a,b).
  |} in
  let report =
    Dred.maintain db
      (Changes.insertions (Database.program db) "link" [ Tuple.of_strs [ "b"; "c" ] ])
  in
  Alcotest.(check int) "nothing overdeleted" 0 (List.length report.Ivm.Delta.overdeleted);
  Alcotest.(check int) "nothing rederived" 0 (List.length report.Ivm.Delta.rederived);
  match report.Ivm.Delta.view_deltas with
  | [ ("path", d) ] -> check_rel "Δpath" (rel_of_pairs "bc; ac") d
  | _ -> Alcotest.fail "expected one path delta"

let rc_on_empty_base () =
  let program =
    Program.make
      (Ivm_datalog.Parser.parse_rules
         "path(X, Y) :- link(X, Y).\npath(X, Y) :- path(X, Z), link(Z, Y).")
  in
  let db = Database.create ~semantics:Database.Duplicate_semantics program in
  Rc.evaluate db;
  Alcotest.(check int) "empty" 0 (Relation.cardinal (Database.relation db "path"));
  ignore
    (Rc.maintain db
       (Changes.insertions program "link"
          [ Tuple.of_strs [ "a"; "b" ]; Tuple.of_strs [ "b"; "c" ] ]));
  check_rel ~counted:false "bootstrapped" (rel_of_pairs "ab; bc; ac")
    (Database.relation db "path")

let update_returns_both_sides () =
  let vm =
    Vm.of_source ~semantics:Database.Duplicate_semantics
      {|
        hop(X, Y) :- link(X, Z), link(Z, Y).
        link(a,b). link(b,c).
      |}
  in
  let deltas =
    Vm.update vm "link" ~old_tuple:(Tuple.of_strs [ "b"; "c" ])
      ~new_tuple:(Tuple.of_strs [ "b"; "d" ])
  in
  match List.assoc_opt "hop" deltas with
  | Some d -> check_rel "±1 in one delta" (rel_of_pairs "ac -1; ad") d
  | None -> Alcotest.fail "expected hop delta"

let counting_report_base_deltas () =
  let db = db_of_source {|
    hop(X, Y) :- link(X, Z), link(Z, Y).
    link(a,b).
  |} in
  let report =
    Ivm.Counting.maintain db
      (Changes.insertions (Database.program db) "link" [ Tuple.of_strs [ "b"; "c" ] ])
  in
  (match report.Ivm.Delta.base_deltas with
  | [ ("link", d) ] -> Alcotest.(check int) "one base tuple" 1 (Relation.cardinal d)
  | _ -> Alcotest.fail "expected link base delta");
  Alcotest.(check (list string)) "changed views" [ "hop" ]
    (Ivm.Delta.changed_views report)

let suite =
  [
    quick "SQL translate result shape" translate_result_shape;
    quick "PF granularity statistics" pf_granularity_stats;
    quick "DRed report on pure insertions" dred_report_on_insertions;
    quick "recursive counting from empty base" rc_on_empty_base;
    quick "update returns deletion and insertion together" update_returns_both_sides;
    quick "counting report fields" counting_report_base_deltas;
  ]
