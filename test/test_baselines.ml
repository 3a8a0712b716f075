(** Baselines: recomputation, PF, and the Blakeley SPJ special case. *)

open Util
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Recompute = Ivm.Recompute
module Pf = Ivm_baselines.Pf
module Blakeley = Ivm_baselines.Blakeley
module Stats = Ivm_eval.Stats

let tc_source =
  {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- path(X, Z), link(Z, Y).
    link(a,b). link(b,c). link(c,d). link(a,c). link(d,e).
  |}

(* PF reaches the same final state as DRed. *)
let pf_agrees_with_dred () =
  let changes db =
    Changes.of_list (Database.program db)
      [
        ( "link",
          [
            (Tuple.of_strs [ "b"; "c" ], -1);
            (Tuple.of_strs [ "c"; "d" ], -1);
            (Tuple.of_strs [ "b"; "e" ], 1);
          ] );
      ]
  in
  let db_pf = db_of_source tc_source in
  let db_dred = db_of_source tc_source in
  ignore (Pf.maintain db_pf (changes db_pf));
  ignore (Ivm.Dred.maintain db_dred (changes db_dred));
  check_rel ~counted:false "path agrees" (rel db_dred "path") (rel db_pf "path")

(* PF fragments: one propagation pass per changed tuple; on a layered DAG
   with overlapping derivations it rederives tuples again and again, doing
   strictly more work than DRed's single batch (the paper's Section 2
   complaint). *)
let pf_fragments () =
  let mk_db () =
    let rng = Ivm_workload.Prng.create 42 in
    let edges =
      Ivm_workload.Graph_gen.layered_dag rng ~layers:5 ~width:4 ~out_degree:3
    in
    let rules =
      Ivm_datalog.Parser.parse_rules Ivm_workload.Programs.transitive_closure
    in
    let program = Program.make rules in
    let db = Database.create program in
    Database.load db "link" (Ivm_workload.Graph_gen.tuples edges);
    Seminaive.evaluate db;
    db
  in
  (* delete several layer-0 edges: their downstream paths overlap *)
  let pick db =
    let stored = Database.relation db "link" in
    let all = Relation.fold (fun tup _ acc -> tup :: acc) stored [] in
    let sorted = List.sort Tuple.compare all in
    List.filteri (fun i _ -> i < 6) sorted
  in
  let db_pf = mk_db () in
  let del_pf = Changes.deletions (Database.program db_pf) "link" (pick db_pf) in
  Stats.reset ();
  let stats = Pf.maintain db_pf del_pf in
  let pf_work = Stats.derivations () in
  Alcotest.(check int) "one pass per tuple" 6 stats.Pf.passes;
  let db_dred = mk_db () in
  let del_dred = Changes.deletions (Database.program db_dred) "link" (pick db_dred) in
  Stats.reset ();
  ignore (Ivm.Dred.maintain db_dred del_dred);
  let dred_work = Stats.derivations () in
  check_rel ~counted:false "same final state" (rel db_dred "path") (rel db_pf "path");
  Alcotest.(check bool)
    (Printf.sprintf "PF does more work (pf=%d dred=%d)" pf_work dred_work)
    true
    (pf_work > dred_work)

(* Per-predicate granularity also agrees. *)
let pf_per_predicate () =
  let db = db_of_source tc_source in
  let changes =
    Changes.of_list (Database.program db)
      [ ("link", [ (Tuple.of_strs [ "d"; "e" ], -1) ]) ]
  in
  let stats = Pf.maintain ~granularity:Pf.Per_predicate db changes in
  Alcotest.(check int) "single pass" 1 stats.Pf.passes;
  Alcotest.(check bool)
    "edge deleted" false
    (Relation.mem (rel db "path") (Tuple.of_strs [ "d"; "e" ]))

(* Recompute agrees with counting on nonrecursive views. *)
let recompute_agrees () =
  let src =
    {|
      hop(X, Y) :- link(X, Z), link(Z, Y).
      tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
      link(a,b). link(b,c). link(c,d).
    |}
  in
  let changes db =
    Changes.of_list (Database.program db)
      [
        ( "link",
          [ (Tuple.of_strs [ "a"; "b" ], -1); (Tuple.of_strs [ "b"; "e" ], 1) ]
        );
      ]
  in
  let db_inc = db_of_source ~semantics:Database.Set_semantics src in
  let db_re = db_of_source ~semantics:Database.Set_semantics src in
  ignore (Counting.maintain db_inc (changes db_inc));
  Recompute.maintain db_re (changes db_re);
  List.iter
    (fun p -> check_rel (p ^ " matches") (rel db_re p) (rel db_inc p))
    [ "hop"; "tri_hop" ]

(* Blakeley accepts SPJ views and matches counting. *)
let blakeley_spj () =
  let src =
    {|
      hop(X, Y) :- link(X, Z), link(Z, Y).
      cheap(X, Y) :- toll(X, Y, C), C < 5.
      link(a,b). link(b,c). toll(a,b,3). toll(b,c,9).
    |}
  in
  let db = db_of_source ~semantics:Database.Duplicate_semantics src in
  let changes =
    Changes.insertions (Database.program db) "link" [ Tuple.of_strs [ "c"; "a" ] ]
  in
  let report = Blakeley.maintain db changes in
  Alcotest.(check bool)
    "hop delta computed" true
    (List.mem_assoc "hop" report.Ivm.Delta.view_deltas)

(* Blakeley rejects views over views, unions, negation and aggregation. *)
let blakeley_rejections () =
  let reject src =
    let db = db_of_source ~semantics:Database.Duplicate_semantics src in
    let changes =
      Changes.insertions (Database.program db) "link" [ Tuple.of_strs [ "x"; "y" ] ]
    in
    try
      ignore (Blakeley.maintain db changes);
      Alcotest.fail "expected Not_spj"
    with Blakeley.Not_spj _ -> ()
  in
  reject
    {|
      hop(X, Y) :- link(X, Z), link(Z, Y).
      tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
      link(a,b).
    |};
  reject
    {|
      r(X, Y) :- link(X, Y).
      r(X, Y) :- wire(X, Y).
      link(a,b). wire(c,d).
    |};
  reject
    {|
      lonely(X, Y) :- link(X, Y), not wire(X, Y).
      link(a,b). wire(a,c).
    |};
  reject
    {|
      deg(X, N) :- groupby(link(X, Y), [X], N = count()).
      link(a,b).
    |}

let suite =
  [
    quick "PF agrees with DRed" pf_agrees_with_dred;
    quick "PF fragments computation" pf_fragments;
    quick "PF per-predicate granularity" pf_per_predicate;
    quick "recompute agrees with counting" recompute_agrees;
    quick "Blakeley handles SPJ" blakeley_spj;
    quick "Blakeley rejects non-SPJ" blakeley_rejections;
  ]
