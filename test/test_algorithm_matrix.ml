(** The algorithm matrix: on their shared domain, all maintenance
    algorithms and recomputation agree — the paper's two algorithms are
    interchangeable where both apply (§7: counting is preferred
    nonrecursively, DRed recursively, but both are correct on both). *)

open Util
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Rc = Ivm.Recursive_counting
module Recompute = Ivm.Recompute
module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Update_gen = Ivm_workload.Update_gen

(* a nonrecursive program with negation and aggregation — every algorithm
   can maintain it (set semantics for comparability) *)
let src =
  {|
    hop(X, Y) :- link(X, Z), link(Z, Y).
    tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
    only_tri(X, Y) :- tri_hop(X, Y), not hop(X, Y).
    fanout(X, N) :- groupby(link(X, Y), [X], N = count()).
  |}

let mk semantics seed =
  let rng = Prng.create seed in
  let program = Program.make (Parser.parse_rules src) in
  let db = Database.create ~semantics program in
  Database.load db "link"
    (Graph_gen.tuples (Graph_gen.random rng ~nodes:25 ~edges:80));
  Seminaive.evaluate db;
  (db, rng)

let agree_as_sets dbs =
  let (first_name, first), rest =
    match dbs with x :: rest -> (x, rest) | [] -> assert false
  in
  List.iter
    (fun (name, db) ->
      List.iter
        (fun p ->
          if
            not
              (Relation.equal_sets
                 (Database.relation first p)
                 (Database.relation db p))
          then
            Alcotest.failf "%s vs %s on %s: %s <> %s" first_name name p
              (Relation.to_string (Database.relation first p))
              (Relation.to_string (Database.relation db p)))
        (Program.derived_preds (Database.program first)))
    rest

let matrix_nonrecursive () =
  (* same victim streams via same seeds *)
  let seed = 99 in
  let db_cnt, rng_cnt = mk Database.Set_semantics seed in
  let db_dred, rng_dred = mk Database.Set_semantics seed in
  let db_rc, rng_rc = mk Database.Duplicate_semantics seed in
  let db_re, rng_re = mk Database.Set_semantics seed in
  for _ = 1 to 4 do
    let step db rng maintain =
      let changes =
        Changes.merge
          (Update_gen.deletions rng db "link" 3)
          (Update_gen.edge_insertions rng db "link" ~nodes:25 3)
      in
      maintain db changes
    in
    step db_cnt rng_cnt (fun db c -> ignore (Counting.maintain db c));
    step db_dred rng_dred (fun db c -> ignore (Dred.maintain db c));
    step db_rc rng_rc (fun db c -> ignore (Rc.maintain db c));
    step db_re rng_re (fun db c -> Recompute.maintain db c)
  done;
  agree_as_sets
    [
      ("counting", db_cnt); ("dred", db_dred); ("recursive-counting", db_rc);
      ("recompute", db_re);
    ]

(* counting's duplicate counts equal recursive counting's on nonrecursive
   programs — they implement the same Theorem 4.1 semantics *)
let counting_equals_rc_counts () =
  let seed = 7 in
  let db_cnt, rng_cnt = mk Database.Duplicate_semantics seed in
  let db_rc, rng_rc = mk Database.Duplicate_semantics seed in
  for _ = 1 to 4 do
    let changes rng db =
      Changes.merge
        (Update_gen.deletions rng db "link" 2)
        (Update_gen.edge_insertions rng db "link" ~nodes:25 2)
    in
    ignore (Counting.maintain db_cnt (changes rng_cnt db_cnt));
    ignore (Rc.maintain db_rc (changes rng_rc db_rc))
  done;
  List.iter
    (fun p ->
      if
        not
          (Relation.equal_counted
             (Database.relation db_cnt p)
             (Database.relation db_rc p))
      then
        Alcotest.failf "%s: counting %s <> rc %s" p
          (Relation.to_string (Database.relation db_cnt p))
          (Relation.to_string (Database.relation db_rc p)))
    (Program.derived_preds (Database.program db_cnt))

(* affected-view pruning: changes to a base relation no view reads yield
   an empty report and touch nothing *)
let unaffected_views_skipped () =
  let db =
    db_of_source ~extra_base:[ ("noise", 2) ]
      {|
        hop(X, Y) :- link(X, Z), link(Z, Y).
        link(a,b). link(b,c).
      |}
  in
  Ivm_eval.Stats.reset ();
  let report =
    Counting.maintain db
      (Changes.insertions (Database.program db) "noise" [ Tuple.of_strs [ "x"; "y" ] ])
  in
  Alcotest.(check int) "no view deltas" 0 (List.length report.Ivm.Delta.view_deltas);
  Alcotest.(check int) "no rule applications" 0 (Ivm_eval.Stats.rule_applications ());
  Alcotest.(check bool)
    "noise stored" true
    (Relation.mem (rel db "noise") (Tuple.of_strs [ "x"; "y" ]))

(* What [View_manager.apply] returns names derived predicates only, each
   once, in name order, under every supported (algorithm, semantics)
   pair, on a nonrecursive and on a recursive program: the base
   relations' own deltas are not in it. *)
let apply_lists_derived_in_order () =
  let module Vm = Ivm.View_manager in
  let recursive =
    {|
      path(X, Y) :- link(X, Y).
      path(X, Y) :- path(X, Z), link(Z, Y).
      hop(X, Y) :- link(X, Z), link(Z, Y).
      far(X, Y) :- path(X, Y), not hop(X, Y).
    |}
  in
  let facts =
    [ ("link", List.map Tuple.of_strs [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ] ]) ]
  in
  List.iter
    (fun (source, semantics, algorithm) ->
      match
        Vm.create ~semantics ~algorithm ~facts (Parser.parse_rules source)
      with
      | exception Invalid_argument _ -> () (* outside the contract *)
      | vm ->
        let changes =
          Changes.of_list (Vm.program vm)
            [
              ( "link",
                [ (Tuple.of_strs [ "d"; "e" ], 1); (Tuple.of_strs [ "a"; "b" ], -1) ] );
            ]
        in
        let preds = List.map fst (Vm.apply vm changes) in
        let name = Vm.algorithm_name algorithm in
        let derived = Program.derived_preds (Vm.program vm) in
        List.iter
          (fun p ->
            if not (List.mem p derived) then
              Alcotest.failf "%s returned %s, not a derived predicate" name p)
          preds;
        Alcotest.(check (list string))
          (name ^ ": in name order, each once")
          (List.sort_uniq String.compare preds) preds;
        if algorithm <> Vm.Recompute && preds = [] then
          Alcotest.failf "%s returned no view delta" name)
    (List.concat_map
       (fun source ->
         List.concat_map
           (fun semantics ->
             List.map
               (fun a -> (source, semantics, a))
               Vm.[ Counting; Dred; Dred_counted; Recursive_counting; Recompute; Auto ])
           [ Database.Set_semantics; Database.Duplicate_semantics ])
       [ src; recursive ])

let suite =
  [
    quick "all algorithms agree on nonrecursive programs" matrix_nonrecursive;
    quick "counting == recursive counting on counts" counting_equals_rc_counts;
    quick "unaffected views are skipped entirely" unaffected_views_skipped;
    quick "apply lists derived predicates only, in name order"
      apply_lists_derived_in_order;
  ]
