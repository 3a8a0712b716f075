(** Persistent incremental aggregate indexes ([DAJ91] accumulators): the
    indexed path must agree exactly with the probe-based Algorithm 6.1
    path and with recomputation, across insertions, deletions, group
    birth/death, and both semantics. *)

open Util
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Vm = Ivm.View_manager
module Agg_index = Ivm_eval.Agg_index
module Compile = Ivm_eval.Compile

let agg_spec_of_source src =
  let rule = Ivm_datalog.Parser.parse_rule src in
  match rule.Ivm_datalog.Ast.body with
  | [ Ivm_datalog.Ast.Lagg agg ] -> Compile.compile_agg_spec agg
  | _ -> failwith "expected a single groupby literal"

let min_spec =
  agg_spec_of_source "v(S, D, M) :- groupby(hop(S, D, C), [S, D], M = min(C))."

let tup3 s d c = Tuple.of_list Value.[ str s; str d; int c ]

(* Build over a relation, then mutate through deltas; grouped relation and
   previews must match a fresh build at every step. *)
let build_and_apply () =
  let u = Relation.create 3 in
  List.iter
    (fun t -> Relation.add u t 1)
    [ tup3 "a" "b" 3; tup3 "a" "b" 5; tup3 "a" "c" 9 ];
  let idx = Agg_index.build (Relation_view.concrete u) min_spec in
  Alcotest.(check int) "two groups" 2 (Agg_index.group_count idx);
  let fresh () =
    Ivm_eval.Grouping.compute (Relation_view.concrete u) min_spec
  in
  check_rel ~counted:false "initial grouped" (fresh ()) (Agg_index.grouped idx);
  (* delete the current minimum of (a,b): min moves 3 → 5 *)
  let delta = Relation.of_list 3 [ (tup3 "a" "b" 3, -1) ] in
  Relation.add u (tup3 "a" "b" 3) (-1);
  let dt = Agg_index.apply_delta idx delta in
  check_rel ~counted:false "grouped after delete" (fresh ()) (Agg_index.grouped idx);
  Alcotest.(check int) "ΔT has −old +new" 2 (Relation.cardinal dt);
  (* kill the whole (a,c) group *)
  let delta = Relation.of_list 3 [ (tup3 "a" "c" 9, -1) ] in
  Relation.add u (tup3 "a" "c" 9) (-1);
  ignore (Agg_index.apply_delta idx delta);
  Alcotest.(check int) "group died" 1 (Agg_index.group_count idx);
  check_rel ~counted:false "grouped after group death" (fresh ())
    (Agg_index.grouped idx);
  (* new group appears *)
  let delta = Relation.of_list 3 [ (tup3 "x" "y" 7, 1) ] in
  Relation.add u (tup3 "x" "y" 7) 1;
  let dt = Agg_index.apply_delta idx delta in
  Alcotest.(check int) "group born" 2 (Agg_index.group_count idx);
  Alcotest.(check int) "ΔT is the new tuple" 1 (Relation.cardinal dt);
  check_rel ~counted:false "grouped after birth" (fresh ()) (Agg_index.grouped idx)

(* preview must not mutate *)
let preview_is_pure () =
  let u = Relation.create 3 in
  List.iter (fun t -> Relation.add u t 1) [ tup3 "a" "b" 3; tup3 "a" "b" 5 ];
  let idx = Agg_index.build (Relation_view.concrete u) min_spec in
  let before = Relation.copy (Agg_index.grouped idx) in
  let delta = Relation.of_list 3 [ (tup3 "a" "b" 3, -1) ] in
  let dt1 = Agg_index.delta_preview idx delta in
  let dt2 = Agg_index.delta_preview idx delta in
  check_rel "previews agree" dt1 dt2;
  check_rel ~counted:false "index unchanged" before (Agg_index.grouped idx)

let aggregation_source =
  {|
    hop(S, D, C1 + C2) :- link(S, I, C1), link(I, D, C2).
    min_cost_hop(S, D, M) :- groupby(hop(S, D, C), [S, D], M = min(C)).
    total_fanout(S, T) :- groupby(link(S, D, C), [S], T = sum(C)).
    link(a,b,1). link(b,c,2). link(b,e,5). link(a,d,4). link(d,c,1).
  |}

(* counting with the index registered must equal counting without, over a
   stream of updates, in both semantics *)
let indexed_counting_agrees semantics () =
  let mk () = db_of_source ~semantics aggregation_source in
  let db_plain = mk () in
  let db_indexed = mk () in
  let vm_like_register db =
    List.iter
      (fun rule ->
        List.iter
          (fun lit ->
            match lit with
            | Ivm_datalog.Ast.Lagg agg ->
              ignore
                (Database.register_agg_index db (Compile.compile_agg_spec agg))
            | _ -> ())
          rule.Ivm_datalog.Ast.body)
      (Program.rules (Database.program db))
  in
  vm_like_register db_indexed;
  let batches =
    [
      [ (tup3 "a" "f" 1, 1); (tup3 "f" "c" 1, 1) ];
      [ (tup3 "f" "c" 1, -1) ];
      [ (tup3 "b" "c" 2, -1); (tup3 "b" "c" 7, 1) ];
      [ (tup3 "a" "b" 1, -1) ];
      [ (tup3 "z" "z2" 3, 1) ];
    ]
  in
  List.iter
    (fun batch ->
      let ch db = Changes.of_list (Database.program db) [ ("link", batch) ] in
      ignore (Counting.maintain db_plain (ch db_plain));
      ignore (Counting.maintain db_indexed (ch db_indexed));
      List.iter
        (fun p ->
          if not (Relation.equal_counted (rel db_plain p) (rel db_indexed p))
          then
            Alcotest.failf "%s: plain %s <> indexed %s" p
              (Relation.to_string (rel db_plain p))
              (Relation.to_string (rel db_indexed p)))
        (Program.derived_preds (Database.program db_plain)))
    batches

(* View_manager opt-in: audits stay green through updates and rule
   changes. *)
let view_manager_integration () =
  let vm = Vm.of_source ~algorithm:Vm.Counting aggregation_source in
  Vm.enable_incremental_aggregates vm;
  ignore (Vm.insert vm "link" [ tup3 "a" "f" 1; tup3 "f" "c" 1 ]);
  Alcotest.(check (result unit string)) "audit 1" (Ok ()) (Vm.audit vm);
  ignore (Vm.delete vm "link" [ tup3 "f" "c" 1 ]);
  Alcotest.(check (result unit string)) "audit 2" (Ok ()) (Vm.audit vm);
  (* rule change rebuilds the database; indexes must re-register *)
  Vm.add_rule_text vm "cheap(S, D) :- min_cost_hop(S, D, M), M < 4.";
  ignore (Vm.delete vm "link" [ tup3 "a" "b" 1 ]);
  Alcotest.(check (result unit string)) "audit 3" (Ok ()) (Vm.audit vm)

(* DRed consumes set transitions *)
let dred_with_index () =
  let src =
    {|
      path(X, Y) :- link(X, Y).
      path(X, Y) :- path(X, Z), link(Z, Y).
      out_degree(X, N) :- groupby(path(X, Y), [X], N = count()).
      link(a,b). link(b,c). link(c,d). link(a,c).
    |}
  in
  let db = db_of_source src in
  (match
     Program.rules (Database.program db)
     |> List.concat_map (fun r -> r.Ivm_datalog.Ast.body)
     |> List.filter_map (function Ivm_datalog.Ast.Lagg a -> Some a | _ -> None)
   with
  | [ agg ] ->
    ignore (Database.register_agg_index db (Compile.compile_agg_spec agg))
  | _ -> Alcotest.fail "expected one aggregate");
  let oracle = Database.copy db in
  let changes =
    Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "b"; "c" ] ]
  in
  List.iter
    (fun (pred, delta) ->
      let stored = Database.relation oracle pred in
      Relation.iter (fun tup c -> Relation.add stored tup c) delta)
    (Changes.normalize_base oracle changes);
  Seminaive.evaluate oracle;
  ignore (Dred.maintain db changes);
  check_rel ~counted:false "out_degree matches oracle" (rel oracle "out_degree")
    (rel db "out_degree")

(* a recompute invalidates indexes; subsequent counting still correct *)
let recompute_invalidates () =
  let db = db_of_source aggregation_source in
  List.iter
    (fun rule ->
      List.iter
        (fun lit ->
          match lit with
          | Ivm_datalog.Ast.Lagg agg ->
            ignore (Database.register_agg_index db (Compile.compile_agg_spec agg))
          | _ -> ())
        rule.Ivm_datalog.Ast.body)
    (Program.rules (Database.program db));
  Ivm.Recompute.maintain db
    (Changes.insertions (Database.program db) "link" [ tup3 "q" "r" 2 ]);
  (* indexes dropped; counting falls back to the probe path and stays exact *)
  ignore
    (Counting.maintain db
       (Changes.insertions (Database.program db) "link" [ tup3 "r" "s" 2 ]));
  let oracle = Database.copy db in
  Seminaive.evaluate oracle;
  List.iter
    (fun p -> check_rel (p ^ " exact") (rel oracle p) (rel db p))
    (Program.derived_preds (Database.program db))

(* A delta may spell a stored value in the other numeric kind: deleting
   f(a, 2.0) removes the stored f(a, 2).  The index's SUM then takes the
   float removal from its exact Int sum and agrees with a fresh build. *)
let float_delta_of_int_value () =
  let spec = agg_spec_of_source "t(P, T) :- groupby(f(P, X), [P], T = sum(X))." in
  let f x = Tuple.of_list [ Value.str "a"; x ] in
  let u = Relation.create 2 in
  List.iter (fun t -> Relation.add u t 1) [ f (Value.int 2); f (Value.float 3.5) ];
  let idx = Agg_index.build (Relation_view.concrete u) spec in
  let delta = Relation.of_list 2 [ (f (Value.float 2.0), -1) ] in
  Relation.add u (f (Value.float 2.0)) (-1);
  ignore (Agg_index.apply_delta idx delta);
  check_rel ~counted:false "grouped after the float-spelled delete"
    (Ivm_eval.Grouping.compute (Relation_view.concrete u) spec)
    (Agg_index.grouped idx)

(* An Int-spelled delete of a stored Float: deleting f(a, 2) removes the
   stored f(a, 2.0).  The batch is normalized to the stored spelling, so
   the incremental SUM takes out the float it holds, and the maintained
   view equals a recomputation under every count-exact algorithm. *)
let int_spelled_delete_of_float_value () =
  List.iter
    (fun algorithm ->
      let vm =
        Vm.of_source ~algorithm
          {|t(P, T) :- groupby(f(P, X), [P], T = sum(X)).
            f(a, 2.0). f(a, 0.1). f(a, 0.7).|}
      in
      Vm.enable_incremental_aggregates vm;
      ignore (Vm.delete vm "f" [ Tuple.of_list [ Value.str "a"; Value.int 2 ] ]);
      Alcotest.(check (result unit string))
        (Vm.algorithm_name algorithm ^ ": audit after the Int-spelled delete")
        (Ok ()) (Vm.audit vm))
    [ Vm.Auto; Vm.Counting; Vm.Dred_counted ]

let suite =
  [
    quick "build / apply_delta lifecycle" build_and_apply;
    quick "delta_preview is pure" preview_is_pure;
    quick "indexed counting == plain (set)"
      (indexed_counting_agrees Database.Set_semantics);
    quick "indexed counting == plain (duplicates)"
      (indexed_counting_agrees Database.Duplicate_semantics);
    quick "view manager integration + rule changes" view_manager_integration;
    quick "DRed with registered index" dred_with_index;
    quick "recompute invalidates indexes" recompute_invalidates;
    quick "a float-spelled delete of an Int value" float_delta_of_int_value;
    quick "an Int-spelled delete of a stored Float, through the manager"
      int_spelled_delete_of_float_value;
  ]
