(** Additional unit coverage: relation internals, lexer/parser corners,
    aggregate accumulators, semi-naive guards, cross-unit DRed cascades. *)

open Util
module Lexer = Ivm_datalog.Lexer
module Agg = Ivm_eval.Agg
module Changes = Ivm.Changes

(* ---------------- relation internals ---------------- *)

let relation_misc () =
  let r = rel_of_pairs "ab 2; cd -1" in
  Alcotest.(check int) "total_count is signed" 1 (Relation.total_count r);
  Alcotest.(check bool) "exists" true (Relation.exists (fun _ c -> c < 0) r);
  Relation.set_count r (Tuple.of_strs [ "a"; "b" ]) 7;
  Alcotest.(check int) "set_count overwrites" 7
    (Relation.count r (Tuple.of_strs [ "a"; "b" ]));
  Relation.remove r (Tuple.of_strs [ "a"; "b" ]);
  Alcotest.(check bool) "remove" false (Relation.mem r (Tuple.of_strs [ "a"; "b" ]));
  Relation.clear r;
  Alcotest.(check bool) "clear" true (Relation.is_empty r)

let relation_index_lifecycle () =
  let r = rel_of_pairs "ab; ac; bc" in
  Relation.ensure_index r [| 1 |];
  Relation.ensure_index r [| 1 |];
  (* idempotent *)
  let hits = ref 0 in
  Relation.probe r [| 1 |] (Tuple.of_strs [ "c" ]) (fun _ _ -> incr hits);
  Alcotest.(check int) "column-1 probe" 2 !hits;
  (* full-tuple probe uses direct lookup *)
  let hit = ref 0 in
  Relation.probe r [| 0; 1 |] (Tuple.of_strs [ "a"; "b" ]) (fun _ c -> hit := c);
  Alcotest.(check int) "membership probe" 1 !hit;
  (* copies carry indexes and stay independent *)
  let r2 = Relation.copy r in
  Relation.add r2 (Tuple.of_strs [ "z"; "c" ]) 1;
  let hits2 = ref 0 in
  Relation.probe r2 [| 1 |] (Tuple.of_strs [ "c" ]) (fun _ _ -> incr hits2);
  Alcotest.(check int) "copy sees its own insert" 3 !hits2;
  let hits1 = ref 0 in
  Relation.probe r [| 1 |] (Tuple.of_strs [ "c" ]) (fun _ _ -> incr hits1);
  Alcotest.(check int) "original untouched" 2 !hits1

let relation_diff_negate () =
  let a = rel_of_pairs "ab 2" and b = rel_of_pairs "ab 2; cd" in
  check_rel "diff" (rel_of_pairs "cd -1") (Relation.diff a b);
  let n = Relation.negate b in
  check_rel "negate" (rel_of_pairs "ab -2; cd -1") n;
  Alcotest.(check bool) "negate cancels" true
    (Relation.is_empty (Relation.union n b))

(* ---------------- lexer / parser corners ---------------- *)

let lexer_tokens () =
  let toks = Lexer.tokenize "p(X) :- q(X, 2.5), X >= 1, X <> 2. % c" in
  let kinds = List.map (fun s -> s.Lexer.tok) toks in
  Alcotest.(check bool) "has float" true (List.mem (Lexer.FLOAT 2.5) kinds);
  Alcotest.(check bool) "has GE" true (List.mem Lexer.GE kinds);
  Alcotest.(check bool) "<> is NEQ" true (List.mem Lexer.NEQ kinds);
  Alcotest.(check bool) "comment skipped" true
    (List.for_all (function Lexer.IDENT "c" -> false | _ -> true) kinds);
  (match List.rev kinds with
  | Lexer.EOF :: _ -> ()
  | _ -> Alcotest.fail "EOF expected")

let lexer_positions () =
  try
    ignore (Lexer.tokenize "p(X) :-\n  q(@).");
    Alcotest.fail "expected Lex_error"
  with Lexer.Lex_error msg ->
    Alcotest.(check bool) "line 2 reported" true
      (String.length msg >= 6 && String.sub msg 0 6 = "line 2")

let parse_body_queries () =
  let lits = Parser.parse_body "hop(a, X), not link(X, b), X != c" in
  Alcotest.(check int) "three literals" 3 (List.length lits);
  let lits = Parser.parse_body "link(X, Y)." in
  Alcotest.(check int) "trailing dot ok" 1 (List.length lits);
  try
    ignore (Parser.parse_body "link(X, Y) link(Y, Z)");
    Alcotest.fail "expected Parse_error"
  with Parser.Parse_error _ -> ()

let pretty_precedence () =
  let roundtrip src =
    let r = Parser.parse_rule src in
    let printed = Ivm_datalog.Pretty.rule_to_string r in
    let r2 = Parser.parse_rule printed in
    Alcotest.(check bool) (Printf.sprintf "%s ↔ %s" src printed) true
      (Ast.equal_rule r r2)
  in
  roundtrip "p(X * (Y + Z)) :- q(X, Y, Z).";
  roundtrip "p((X + Y) * Z) :- q(X, Y, Z).";
  roundtrip "p(X - (Y - Z)) :- q(X, Y, Z).";
  roundtrip "p(-X + Y) :- q(X, Y).";
  roundtrip "p(X / Y / Z) :- q(X, Y, Z)."

(* ---------------- aggregate accumulators ---------------- *)

let agg_invalid_removal () =
  let st = Agg.create Ast.Sum in
  Agg.update st (Value.int 5) 1;
  try
    Agg.update st (Value.int 5) (-2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let agg_min_multiset () =
  let st = Agg.create Ast.Min in
  Agg.update st (Value.int 3) 2;
  Agg.update st (Value.int 5) 1;
  Agg.update st (Value.int 3) (-1);
  Alcotest.(check bool) "min still 3 (one copy left)" true
    (Agg.value st = Some (Value.int 3));
  Agg.update st (Value.int 3) (-1);
  Alcotest.(check bool) "min now 5" true (Agg.value st = Some (Value.int 5));
  Agg.update st (Value.int 5) (-1);
  Alcotest.(check bool) "empty group" true (Agg.value st = None)

let agg_sum_type_error () =
  let st = Agg.create Ast.Sum in
  try
    Agg.update st (Value.str "x") 1;
    Alcotest.fail "expected Type_error"
  with Value.Type_error _ -> ()

let agg_avg_mixed () =
  let st = Agg.create Ast.Avg in
  Agg.update st (Value.int 1) 1;
  Agg.update st (Value.float 2.0) 1;
  Alcotest.(check bool) "avg 1.5" true (Agg.value st = Some (Value.float 1.5))

(* ---------------- semi-naive guards ---------------- *)

let recursive_duplicates_rejected () =
  let program =
    Program.make
      (Parser.parse_rules
         "path(X, Y) :- link(X, Y).\npath(X, Y) :- path(X, Z), link(Z, Y).")
  in
  let db = Database.create ~semantics:Database.Duplicate_semantics program in
  Database.load db "link" [ Tuple.of_strs [ "a"; "b" ] ];
  try
    Seminaive.evaluate db;
    Alcotest.fail "expected Recursive_duplicates"
  with Seminaive.Recursive_duplicates _ -> ()

(* ---------------- counting with duplicate base facts ---------------- *)

let duplicate_base_maintenance () =
  let db =
    db_of_source ~semantics:Database.Duplicate_semantics
      {|
        hop(X, Y) :- link(X, Z), link(Z, Y).
        link(a,b). link(a,b). link(b,c).
      |}
  in
  check_rel "hop(a,c) 2 ways" (rel_of_pairs "ac 2") (rel db "hop");
  (* deleting ONE copy of link(a,b) halves the count *)
  ignore
    (Ivm.Counting.maintain db
       (Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "a"; "b" ] ]));
  check_rel "hop(a,c) 1 way" (rel_of_pairs "ac") (rel db "hop")

let insert_delete_same_batch () =
  let db = db_of_source {|
    hop(X, Y) :- link(X, Z), link(Z, Y).
    link(a,b). link(b,c).
  |} in
  let p = Database.program db in
  let changes =
    Changes.merge
      (Changes.insertions p "link" [ Tuple.of_strs [ "x"; "y" ] ])
      (Changes.deletions p "link" [ Tuple.of_strs [ "x"; "y" ] ])
  in
  let report = Ivm.Counting.maintain db changes in
  Alcotest.(check int) "no view deltas" 0 (List.length report.Ivm.Delta.view_deltas)

let empty_change_set () =
  let db = db_of_source {|
    hop(X, Y) :- link(X, Z), link(Z, Y).
    link(a,b).
  |} in
  let report = Ivm.Counting.maintain db [] in
  Alcotest.(check int) "nothing" 0 (List.length report.Ivm.Delta.view_deltas)

(* ---------------- DRed across stacked recursive units ---------------- *)

let stacked_recursive_units () =
  (* unit 1: path (SCC); unit 2: meta-closure over path endpoints *)
  let src =
    {|
      path(X, Y) :- link(X, Y).
      path(X, Y) :- path(X, Z), link(Z, Y).
      far(X, Y) :- path(X, Y), not link(X, Y).
      reach_far(X, Y) :- far(X, Y).
      reach_far(X, Y) :- reach_far(X, Z), far(Z, Y).
      link(a,b). link(b,c). link(c,d). link(d,e).
    |}
  in
  let db = db_of_source src in
  let changes =
    Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "b"; "c" ] ]
  in
  let oracle = Database.copy db in
  List.iter
    (fun (pred, delta) ->
      let stored = Database.relation oracle pred in
      Relation.iter (fun tup c -> Relation.add stored tup c) delta)
    (Changes.normalize_base oracle changes);
  Seminaive.evaluate oracle;
  ignore (Ivm.Dred.maintain db changes);
  List.iter
    (fun p ->
      if not (Relation.equal_sets (rel db p) (rel oracle p)) then
        Alcotest.failf "%s: %s <> %s" p
          (Relation.to_string (rel db p))
          (Relation.to_string (rel oracle p)))
    [ "path"; "far"; "reach_far" ]

let suite =
  [
    quick "relation misc operations" relation_misc;
    quick "index lifecycle and copies" relation_index_lifecycle;
    quick "diff and negate" relation_diff_negate;
    quick "lexer token coverage" lexer_tokens;
    quick "lexer error positions" lexer_positions;
    quick "parse_body for queries" parse_body_queries;
    quick "pretty-printer precedence round trips" pretty_precedence;
    quick "aggregate invalid removal" agg_invalid_removal;
    quick "MIN keeps a value multiset" agg_min_multiset;
    quick "SUM over non-numbers fails" agg_sum_type_error;
    quick "AVG over mixed numerics" agg_avg_mixed;
    quick "recursive duplicates rejected by seminaive" recursive_duplicates_rejected;
    quick "duplicate base facts maintained" duplicate_base_maintenance;
    quick "insert+delete in one batch is a no-op" insert_delete_same_batch;
    quick "empty change set" empty_change_set;
    quick "DRed across stacked recursive units" stacked_recursive_units;
  ]
