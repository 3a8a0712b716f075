(** The counting algorithm (Algorithm 4.1): the paper's worked maintenance
    examples and equivalence with recomputation. *)

open Util
module Changes = Ivm.Changes
module Counting = Ivm.Counting

let find_delta report pred =
  match List.assoc_opt pred report.Ivm.Delta.view_deltas with
  | Some r -> r
  | None -> Relation.create 2

let find_propagated report pred =
  match List.assoc_opt pred report.Ivm.Delta.propagated_deltas with
  | Some r -> r
  | None -> Relation.create 2

let example_4_2_source =
  {|
    hop(X, Y) :- link(X, Z) & link(Z, Y).
    tri_hop(X, Y) :- hop(X, Z) & link(Z, Y).
    link(a,b). link(a,d). link(d,c). link(b,c). link(c,h). link(f,g).
  |}

let example_4_2_changes db =
  Changes.of_list
    (Database.program db)
    [
      ( "link",
        [
          (Tuple.of_strs [ "a"; "b" ], -1);
          (Tuple.of_strs [ "d"; "f" ], 1);
          (Tuple.of_strs [ "a"; "f" ], 1);
        ] );
    ]

(* Example 4.2, duplicate semantics: Δ(link) = {ab −1, df, af};
   Δ(hop) = {ac −1, af, ag, dg}; Δ(tri_hop) = {ah −1, ag}. *)
let example_4_2 () =
  let db =
    db_of_source ~semantics:Database.Duplicate_semantics example_4_2_source
  in
  let report = Counting.maintain db (example_4_2_changes db) in
  check_rel "Δhop" (rel_of_pairs "ac -1; af; ag; dg") (find_delta report "hop");
  check_rel "Δtri_hop" (rel_of_pairs "ah -1; ag") (find_delta report "tri_hop");
  check_rel "hop after" (rel_of_pairs "ac; af; ag; dg; dh; bh") (rel db "hop");
  check_rel "tri_hop after" (rel_of_pairs "ah; ag") (rel db "tri_hop")

(* Example 5.1, set semantics: the optimization of statement (2) propagates
   Δ(hop) = {af, ag, dg} — the tuple (ac −1) does not cascade, so (ah −1)
   is never derived for tri_hop. *)
let example_5_1 () =
  let db = db_of_source ~semantics:Database.Set_semantics example_4_2_source in
  let report = Counting.maintain db (example_4_2_changes db) in
  check_rel "propagated Δhop" (rel_of_pairs "af; ag; dg")
    (find_propagated report "hop");
  check_rel "Δtri_hop" (rel_of_pairs "ag") (find_delta report "tri_hop");
  (* hop(a,c) is still true — it has one remaining derivation. *)
  Alcotest.(check bool)
    "hop(a,c) survives" true
    (Relation.mem (rel db "hop") (Tuple.of_strs [ "a"; "c" ]));
  check_rel ~counted:false "tri_hop after" (rel_of_pairs "ah; ag")
    (rel db "tri_hop")

(* Examples 4.2 and 5.1 under Auto's cost rule: Δ(link) changes half of
   link, so both views are re-evaluated instead of maintained, and the
   installed deltas are still the paper's, count for count.  Each
   counting.view span names the choice and the input ratio it was made
   on: 3/6 for hop; for tri_hop, Δ(hop) and Δ(link) over hop and link
   (7/9 with duplicates, where all of Δ(hop) propagates; 6/9 under set
   semantics, where (ac −1) does not). *)
let examples_reevaluated () =
  let module Trace = Ivm_obs.Trace in
  List.iter
    (fun (semantics, hop, tri_hop, tri_ratio) ->
      let db = db_of_source ~semantics example_4_2_source in
      Trace.enable ~capacity:1024 ();
      let report =
        Fun.protect
          ~finally:(fun () -> ignore (Trace.disable ()))
          (fun () ->
            Ivm.Delta.maintain ~auto:true Counting.algorithm db (example_4_2_changes db))
      in
      check_rel "Δhop" (rel_of_pairs hop) (find_propagated report "hop");
      check_rel "Δtri_hop" (rel_of_pairs tri_hop) (find_delta report "tri_hop");
      let views =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.name = "counting.view" then
              Some
                (List.filter
                   (fun (k, _) -> List.mem k [ "view"; "choice"; "input_ratio" ])
                   e.args)
            else None)
          (Trace.drain ())
      in
      Alcotest.(check (list (list (pair string string)))) "counting.view spans"
        [
          [ ("view", "hop"); ("choice", "reevaluate"); ("input_ratio", "0.5000") ];
          [ ("view", "tri_hop"); ("choice", "reevaluate"); ("input_ratio", tri_ratio) ];
        ]
        views)
    [
      (Database.Duplicate_semantics, "ac -1; af; ag; dg", "ah -1; ag", "0.7778");
      (Database.Set_semantics, "af; ag; dg", "ag", "0.6667");
    ]

(* Example 1.1: deleting link(a,b) removes hop(a,e) but keeps hop(a,c). *)
let example_1_1_deletion () =
  let db =
    db_of_source ~semantics:Database.Duplicate_semantics
      {|
        hop(X, Y) :- link(X, Z), link(Z, Y).
        link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).
      |}
  in
  let changes = Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "a"; "b" ] ] in
  let report = Counting.maintain db changes in
  check_rel "Δhop" (rel_of_pairs "ac -1; ae -1") (find_delta report "hop");
  check_rel "hop after" (rel_of_pairs "ac") (rel db "hop")

(** Oracle: apply the base changes directly and re-evaluate from scratch;
    compare all derived relations. *)
let against_recompute ?(semantics = Database.Set_semantics) src changes_spec () =
  let db = db_of_source ~semantics src in
  let changes = Changes.of_list (Database.program db) changes_spec in
  let oracle = Database.copy db in
  List.iter
    (fun (pred, delta) ->
      let stored = Database.relation oracle pred in
      Relation.iter (fun tup c -> Relation.add stored tup c) delta)
    (Changes.normalize_base oracle changes);
  Seminaive.evaluate oracle;
  ignore (Counting.maintain db changes);
  List.iter
    (fun p ->
      let eq =
        match semantics with
        | Database.Set_semantics -> Relation.equal_counted
        | Database.Duplicate_semantics -> Relation.equal_counted
      in
      if not (eq (rel db p) (rel oracle p)) then
        Alcotest.failf "%s: incremental %s <> recomputed %s" p
          (Relation.to_string (rel db p))
          (Relation.to_string (rel oracle p)))
    (Program.derived_preds (Database.program db))

let negation_source =
  {|
    hop(X, Y) :- link(X, Z), link(Z, Y).
    tri_hop(X, Y) :- hop(X, Z), link(Z, Y).
    only_tri_hop(X, Y) :- tri_hop(X, Y), not hop(X, Y).
    link(a,b). link(a,e). link(a,f). link(a,g). link(b,c). link(c,d).
    link(c,k). link(e,d). link(f,d). link(g,h). link(h,k).
  |}

(* Inserting link(a,k)? no — make hop(a,k) true by inserting link(k,k)?
   Insert link(a,x),link(x,k): hop(a,k) becomes true, so only_tri_hop(a,k)
   must disappear even though tri_hop(a,k) still holds. *)
let negation_insertion_kills_view () =
  let db = db_of_source ~semantics:Database.Duplicate_semantics negation_source in
  let changes =
    Changes.insertions (Database.program db) "link"
      [ Tuple.of_strs [ "a"; "x" ]; Tuple.of_strs [ "x"; "k" ] ]
  in
  ignore (Counting.maintain db changes);
  Alcotest.(check bool)
    "only_tri_hop(a,k) gone" false
    (Relation.mem (rel db "only_tri_hop") (Tuple.of_strs [ "a"; "k" ]))

let negation_deletion_revives_view () =
  let db = db_of_source ~semantics:Database.Duplicate_semantics negation_source in
  (* hop(a,d) has two derivations (via e and f); tri_hop(a,d) holds via
     hop(a,c)&link(c,d).  Deleting link(a,e) and link(a,f) kills hop(a,d),
     so only_tri_hop(a,d) must appear. *)
  let changes =
    Changes.deletions (Database.program db) "link"
      [ Tuple.of_strs [ "a"; "e" ]; Tuple.of_strs [ "a"; "f" ] ]
  in
  ignore (Counting.maintain db changes);
  Alcotest.(check bool)
    "only_tri_hop(a,d) appears" true
    (Relation.mem (rel db "only_tri_hop") (Tuple.of_strs [ "a"; "d" ]))

let aggregation_source =
  {|
    hop(S, D, C1 + C2) :- link(S, I, C1), link(I, D, C2).
    min_cost_hop(S, D, M) :- groupby(hop(S, D, C), [S, D], M = min(C)).
    link(a,b,1). link(b,c,2). link(b,e,5). link(a,d,4). link(d,c,1).
  |}

let tup3 s d c = Tuple.of_list Value.[ str s; str d; int c ]

let aggregation_min_updates () =
  let db = db_of_source aggregation_source in
  (* new cheap route a→f→c of cost 2 beats the old min 3 *)
  let changes =
    Changes.insertions (Database.program db) "link"
      [ tup3 "a" "f" 1; tup3 "f" "c" 1 ]
  in
  ignore (Counting.maintain db changes);
  Alcotest.(check bool)
    "min(a,c) = 2" true
    (Relation.mem (rel db "min_cost_hop") (tup3 "a" "c" 2));
  Alcotest.(check bool)
    "old min gone" false
    (Relation.mem (rel db "min_cost_hop") (tup3 "a" "c" 3));
  (* deleting the cheap route restores the old minimum *)
  let changes =
    Changes.deletions (Database.program db) "link" [ tup3 "f" "c" 1 ]
  in
  ignore (Counting.maintain db changes);
  Alcotest.(check bool)
    "min back to 3" true
    (Relation.mem (rel db "min_cost_hop") (tup3 "a" "c" 3))

let aggregation_group_disappears () =
  let db = db_of_source aggregation_source in
  let changes =
    Changes.deletions (Database.program db) "link"
      [ tup3 "b" "e" 5 ]
  in
  ignore (Counting.maintain db changes);
  Alcotest.(check bool)
    "group (a,e) dropped" false
    (Relation.exists (fun t _ -> Value.equal (Tuple.get t 1) (Value.str "e")) (rel db "min_cost_hop"))

(* Counting is optimal (Theorem 4.1): an update that does not change any
   view produces no view deltas and, with set semantics, cascades nothing
   upward. *)
let no_change_no_work () =
  let db = db_of_source ~semantics:Database.Set_semantics example_4_2_source in
  (* hop(a,c) has two derivations; deleting a·b kills one, hop unchanged as
     a set, so tri_hop sees nothing. *)
  let changes =
    Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "a"; "b" ] ]
  in
  let report = Counting.maintain db changes in
  Alcotest.(check bool)
    "no tri_hop delta" true
    (Relation.is_empty (find_delta report "tri_hop"))

(* Recursive programs are rejected. *)
let rejects_recursion () =
  let db =
    db_of_source
      {|
        path(X, Y) :- link(X, Y).
        path(X, Y) :- path(X, Z), link(Z, Y).
        link(a,b).
      |}
  in
  let changes =
    Changes.insertions (Database.program db) "link" [ Tuple.of_strs [ "b"; "c" ] ]
  in
  Alcotest.check_raises "recursive rejected"
    (Counting.Recursive_program
       "predicate path is recursive; the counting algorithm handles \
        nonrecursive views — use DRed for recursive views")
    (fun () -> ignore (Counting.maintain db changes))

(* Invalid changes are rejected. *)
let rejects_bad_deletion () =
  let db = db_of_source ~semantics:Database.Set_semantics example_4_2_source in
  let changes =
    Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "z"; "z" ] ]
  in
  (try
     ignore (Counting.maintain db changes);
     Alcotest.fail "expected Invalid_changes"
   with Changes.Invalid_changes _ -> ());
  let changes =
    Changes.insertions (Database.program db) "hop" [ Tuple.of_strs [ "z"; "z" ] ]
  in
  try
    ignore (Counting.maintain db changes);
    Alcotest.fail "expected Invalid_changes for derived"
  with Changes.Invalid_changes _ -> ()

(* Updates = deletion ⊎ insertion in a single change set. *)
let update_in_one_step () =
  let db = db_of_source ~semantics:Database.Duplicate_semantics example_4_2_source in
  let program = Database.program db in
  let changes =
    Changes.update program "link"
      ~old_tuple:(Tuple.of_strs [ "d"; "c" ])
      ~new_tuple:(Tuple.of_strs [ "d"; "h" ])
  in
  ignore (Counting.maintain db changes);
  Alcotest.(check bool)
    "hop(a,h) now" true
    (Relation.mem (rel db "hop") (Tuple.of_strs [ "a"; "h" ]));
  Alcotest.(check bool)
    "hop(a,c) reduced" true
    (Relation.count (rel db "hop") (Tuple.of_strs [ "a"; "c" ]) = 1)

let suite =
  [
    quick "example 4.2 delta walkthrough (duplicates)" example_4_2;
    quick "example 5.1 set optimization stops cascade" example_5_1;
    quick "example 1.1 deletion" example_1_1_deletion;
    quick "negation: insertion kills view tuple" negation_insertion_kills_view;
    quick "negation: deletion revives view tuple" negation_deletion_revives_view;
    quick "aggregation: MIN maintained both ways" aggregation_min_updates;
    quick "aggregation: group disappears" aggregation_group_disappears;
    quick "set optimization: no cascade when set unchanged" no_change_no_work;
    quick "rejects recursive programs" rejects_recursion;
    quick "rejects invalid changes" rejects_bad_deletion;
    quick "update as delete+insert" update_in_one_step;
    quick "vs recompute: hop inserts (dup)"
      (against_recompute ~semantics:Database.Duplicate_semantics
         example_4_2_source
         [
           ( "link",
             [ (Tuple.of_strs [ "c"; "a" ], 1); (Tuple.of_strs [ "g"; "a" ], 1) ]
           );
         ]);
    quick "vs recompute: negation mix (dup)"
      (against_recompute ~semantics:Database.Duplicate_semantics negation_source
         [
           ( "link",
             [
               (Tuple.of_strs [ "a"; "b" ], -1);
               (Tuple.of_strs [ "b"; "k" ], 1);
               (Tuple.of_strs [ "h"; "d" ], 1);
             ] );
         ]);
    quick "vs recompute: aggregation mix (set)"
      (against_recompute ~semantics:Database.Set_semantics aggregation_source
         [
           ( "link",
             [
               (tup3 "a" "b" 1, -1);
               (tup3 "b" "f" 2, 1);
               (tup3 "f" "c" 3, 1);
             ] );
         ]);
    quick "examples 4.2 and 5.1 re-evaluated under Auto" examples_reevaluated;
  ]
