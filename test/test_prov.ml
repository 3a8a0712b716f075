(** Provenance & lineage ([Ivm_prov]): unit tests over small programs and
    randomized properties over generated stratified programs.

    The properties drive each maintenance algorithm over a seeded
    insert/delete stream, with lineage capture off, and then check every
    present view tuple's [why] tree against the live database:

    - every derivation's rule is one of the program's own rules;
    - every child holds;
    - leaves are base facts (nonrecursive programs; recursive trees may
      also end at a cycle);
    - [why not] never fires for a present tuple.

    Aggregate-free shapes only: a GROUPBY subgoal is deliberately not
    expanded into children (the tree notes it instead), which would void
    the strict leaves-are-base-facts check. *)

open Util
module Prov = Ivm_prov.Prov
module Pq = Ivm_prov.Prov_query
module Json = Ivm_obs.Json
module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Rc = Ivm.Recursive_counting
module Pf = Ivm_baselines.Pf
module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Update_gen = Ivm_workload.Update_gen
module Programs = Ivm_workload.Programs
module Pretty = Ivm_datalog.Pretty

let q ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Lineage capture is process-global state; a test that needs it flips
   it on for its own scenario and restores the disabled default. *)
let with_capture f =
  Prov.reset ();
  Prov.set_enabled true;
  Fun.protect ~finally:(fun () -> Prov.set_enabled false) f

let access_of db = Vm.provenance_access (Vm.of_database db)

let t2 a b = Tuple.of_list [ Value.Str a; Value.Str b ]

(* ------------------------------------------------------------------ *)
(* Unit tests                                                           *)
(* ------------------------------------------------------------------ *)

let hop_src =
  "hop(X, Y) :- link(X, Z), link(Z, Y).\n\
   tri(X) :- hop(X, X).\n\
   link(a, b). link(b, c). link(c, a)."

let test_why_present_tuple () =
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  let access = Vm.provenance_access vm in
  match Pq.why access "hop" (t2 "a" "c") with
  | Pq.Why_tree { t_kind = Pq.Derived { supports = [ d ]; derivations; _ }; _ } ->
    Alcotest.(check int) "one derivation found" 1 derivations;
    Alcotest.(check string)
      "support rule" "hop(X, Y) :- link(X, Z), link(Z, Y)." d.Pq.d_rule;
    Alcotest.(check int) "two subgoal children" 2 (List.length d.Pq.d_children);
    List.iter
      (fun c ->
        match c.Pq.t_kind with
        | Pq.Base -> ()
        | _ -> Alcotest.fail "hop child should be a base fact")
      d.Pq.d_children;
    (* The width bound hides derivations but never the count: two rules
       derive hop(a,b), one is shown. *)
    let vm =
      Vm.of_source ~algorithm:Vm.Counting
        "hop(X, Y) :- link(X, Y).\n\
         hop(X, Y) :- back(Y, X).\n\
         link(a, b). back(b, a)."
    in
    (match Pq.why ~max_width:1 (Vm.provenance_access vm) "hop" (t2 "a" "b") with
    | Pq.Why_tree
        { t_kind = Pq.Derived { supports = [ _ ]; derivations = 2; elided = 1; truncated = false }; _ }
      ->
      ()
    | _ -> Alcotest.fail "expected 2 derivations, 1 shown");
    Alcotest.(check int)
      "stored count" 2
      (Relation.count (Vm.relation vm "hop") (t2 "a" "b"))
  | _ -> Alcotest.fail "expected a single-support derivation tree"

let test_why_absent_and_unknown () =
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  let access = Vm.provenance_access vm in
  (match Pq.why access "hop" (t2 "a" "a") with
  | Pq.Why_tree _ -> Alcotest.fail "hop(a,a) holds?"
  | Pq.Why_absent -> ()
  | Pq.Why_unknown_pred -> Alcotest.fail "hop is known");
  match Pq.why access "nope" (t2 "a" "a") with
  | Pq.Why_unknown_pred -> ()
  | _ -> Alcotest.fail "nope should be unknown"

let test_insert_delete_lineage () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Vm.enable_provenance vm;
  (* c->b closes hop(b,b): batch 1 derives it, batch 2 deletes it *)
  ignore (Vm.insert vm "link" [ t2 "c" "b" ]);
  Alcotest.(check bool)
    "hop(b,b) present" true
    (Relation.mem (Vm.relation vm "hop") (t2 "b" "b"));
  let access = Vm.provenance_access vm in
  (match Pq.why access "hop" (t2 "b" "b") with
  | Pq.Why_tree { t_kind = Pq.Derived _; _ } -> ()
  | _ -> Alcotest.fail "hop(b,b) should have a derivation tree");
  ignore (Vm.delete vm "link" [ t2 "c" "b" ]);
  (match Pq.why access "hop" (t2 "b" "b") with
  | Pq.Why_absent -> ()
  | _ -> Alcotest.fail "hop(b,b) is gone after the deletion");
  match Prov.lineage_of ~pred:"hop" (t2 "b" "b") with
  | Some { Prov.first_derived = Some b1; last_deleted = Some b2; _ } ->
    Alcotest.(check bool) "derived before deleted" true (b1 < b2)
  | _ -> Alcotest.fail "expected full lineage for hop(b,b)"

let test_whynot_reports_failing_subgoal () =
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  let access = Vm.provenance_access vm in
  (match Pq.whynot access "hop" (t2 "a" "c") with
  | Pq.Whynot_present 1 -> ()
  | _ -> Alcotest.fail "hop(a,c) is present with count 1");
  (match Pq.whynot access "link" (t2 "a" "z") with
  | Pq.Whynot_base -> ()
  | _ -> Alcotest.fail "absent base fact reports Whynot_base");
  match Pq.whynot access "hop" (t2 "b" "b") with
  | Pq.Whynot_failures [ f ] ->
    Alcotest.(check int) "one of two subgoals satisfiable" 1 f.Pq.f_progress;
    Alcotest.(check int) "two body literals" 2 f.Pq.f_total;
    Alcotest.(check bool) "a failing literal is named" true (f.Pq.f_failing <> None)
  | _ -> Alcotest.fail "expected one candidate-rule failure"

(* The rules [why] shows for a tuple, one per derivation shown. *)
let why_rules access pred tup =
  match Pq.why access pred tup with
  | Pq.Why_tree { t_kind = Pq.Derived { supports; _ }; _ } ->
    List.map (fun d -> d.Pq.d_rule) supports
  | Pq.Why_tree _ -> Alcotest.fail "expected a derived node"
  | Pq.Why_absent | Pq.Why_unknown_pred -> []

(* A rule change is maintained through the guard flip and leaves [why]
   reading the new program: the added rule derives hop(a,b), and once it
   is removed nothing does.  Its lineage transitions land in a batch of
   their own. *)
let test_rule_change_refreshes_supports () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Vm.enable_provenance vm;
  let access = Vm.provenance_access vm in
  let direct = "hop(X, Y) :- link(X, Y)." in
  Vm.add_rule_text vm direct;
  Alcotest.(check (list string))
    "hop(a,b) derived through the added rule" [ direct ]
    (why_rules access "hop" (t2 "a" "b"));
  Alcotest.(check (list string))
    "hop(a,c) keeps its two-hop derivation"
    [ "hop(X, Y) :- link(X, Z), link(Z, Y)." ]
    (why_rules access "hop" (t2 "a" "c"));
  (match Prov.lineage_of ~pred:"hop" (t2 "a" "b") with
  | Some { Prov.first_derived = Some b; _ } ->
    Alcotest.(check (option string))
      "derived in the rule-change batch" (Some "rule-change")
      (Option.map
         (fun (i : Prov.batch_info) -> i.algorithm)
         (List.find_opt (fun (i : Prov.batch_info) -> i.seq = b) (Prov.batches ())))
  | _ -> Alcotest.fail "expected lineage for hop(a,b)");
  Vm.remove_rule_text vm direct;
  Alcotest.(check (list string))
    "hop(a,b) gone with the removed rule" []
    (why_rules access "hop" (t2 "a" "b"));
  Alcotest.(check (list string))
    "hop(a,c) still derived"
    [ "hop(X, Y) :- link(X, Z), link(Z, Y)." ]
    (why_rules access "hop" (t2 "a" "c"))

let test_why_needs_no_capture () =
  Prov.reset ();
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Alcotest.(check bool) "capture off" false (Vm.provenance_enabled vm);
  ignore (Vm.insert vm "link" [ t2 "c" "b" ]);
  Alcotest.(check int) "no lineage recorded" 0 (Prov.tuples_tracked ());
  let access = Vm.provenance_access vm in
  match Pq.why access "hop" (t2 "b" "b") with
  | Pq.Why_tree { t_kind = Pq.Derived { supports = [ d ]; _ }; _ } ->
    Alcotest.(check (list string))
      "children are hop(b,b)'s subgoals" [ "link(b, c)"; "link(c, b)" ]
      (List.map (fun c -> Pq.fact_to_string c.Pq.t_pred c.Pq.t_tuple) d.Pq.d_children)
  | _ -> Alcotest.fail "hop(b,b) should have a derived tree with capture off"

let test_explain_json () =
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  (match Vm.explain_json vm "hop(a, c)" with
  | Ok doc ->
    Alcotest.(check (option string))
      "fact echoed" (Some "hop(a, c)")
      (Option.bind (Json.member "fact" doc) Json.to_string_opt);
    Alcotest.(check bool)
      "why present" true
      (Json.member "why" doc <> None)
  | Error e -> Alcotest.fail ("explain_json: " ^ e));
  (match Vm.explain_json vm "hop(b, b)." with
  | Ok doc -> Alcotest.(check bool) "whynot present" true (Json.member "whynot" doc <> None)
  | Error e -> Alcotest.fail ("explain_json absent: " ^ e));
  (match Vm.explain_json vm "nosuch(1)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown predicate must error");
  match Vm.explain_json vm "garbage(((" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse failure must error"

let test_dred_recursive_why () =
  with_capture @@ fun () ->
  let vm =
    Vm.of_source ~algorithm:Vm.Dred
      (Programs.transitive_closure ^ "\nlink(a, b). link(b, c). link(c, d).")
  in
  Vm.enable_provenance vm;
  ignore (Vm.insert vm "link" [ t2 "d" "a" ]);
  let access = Vm.provenance_access vm in
  (match Pq.why ~max_depth:32 access "path" (t2 "a" "d") with
  | Pq.Why_tree { t_kind = Pq.Derived _; _ } -> ()
  | _ -> Alcotest.fail "path(a,d) should have a derivation tree");
  ignore (Vm.delete vm "link" [ t2 "b" "c" ]);
  Alcotest.(check bool)
    "path(a,d) deleted" false
    (Relation.mem (Vm.relation vm "path") (t2 "a" "d"));
  (match Pq.why access "path" (t2 "a" "d") with
  | Pq.Why_absent -> ()
  | _ -> Alcotest.fail "why must not explain a deleted path tuple");
  (* Derivations and attribution rows name the program's rules, never
     DRed's internal rederivation rewrite. *)
  let rewritten rule = String.contains rule '$' in
  Relation.iter
    (fun tup _ ->
      List.iter
        (fun rule -> if rewritten rule then Alcotest.failf "why names %s" rule)
        (why_rules access "path" tup))
    (Vm.relation vm "path");
  match Ivm_obs.Attribution.last () with
  | None -> Alcotest.fail "no attribution recorded for the DRed batch"
  | Some b ->
    Alcotest.(check bool)
      "the batch rederived" true
      (List.exists (fun (r : Ivm_obs.Attribution.row) -> r.phase = "rederive") b.rows);
    List.iter
      (fun (r : Ivm_obs.Attribution.row) ->
        if rewritten r.rule then Alcotest.failf "attribution row names %s" r.rule)
      b.rows

(* [why] and [why not] run from the monitor beside [apply], so they must
   build no index: [add] keeps only the indexes already published, and one
   built mid-insert would miss that tuple for good.  The right-linear
   closure's [why] binds [link] on column 0, which maintenance never
   indexes. *)
let test_why_builds_no_index () =
  let vm =
    Vm.of_source
      "path(X, Y) :- link(X, Y).\n\
       path(X, Y) :- link(X, Z), path(Z, Y).\n\
       link(a, b). link(b, c). link(c, d)."
  in
  ignore (Vm.insert vm "link" [ t2 "d" "e" ]);
  let indexes () =
    List.map (fun p -> Relation.index_count (Vm.relation vm p)) [ "link"; "path" ]
  in
  let before = indexes () in
  let access = Vm.provenance_access vm in
  Relation.iter
    (fun tup _ ->
      match Pq.why ~max_depth:32 access "path" tup with
      | Pq.Why_tree { t_kind = Pq.Derived _; _ } -> ()
      | _ -> Alcotest.fail "every path tuple has a derivation tree")
    (Vm.relation vm "path");
  ignore (Pq.whynot access "path" (t2 "e" "a"));
  Alcotest.(check (list int)) "index counts unchanged" before (indexes ())

(* Auto's cost rule ignores the provenance switch: a batch swapping half
   of [link] (far above the DRed threshold) re-evaluates under Auto with
   lineage capture on and off alike, and every [why] of every [path]
   tuple equals explicit counted DRed's. *)
let test_auto_ignores_provenance_switch () =
  let src =
    Programs.transitive_closure
    ^ "\nlink(a, b). link(b, c). link(c, d). link(d, e). link(a, c). link(b, d)."
  in
  let swap vm =
    Changes.of_list (Vm.program vm)
      [
        ( "link",
          [ (t2 "a" "b", -1); (t2 "c" "d", -1); (t2 "a" "c", -1); (t2 "e" "a", 1);
            (t2 "c" "e", 1); (t2 "d" "b", 1) ] );
      ]
  in
  let run ~capture algorithm =
    Prov.reset ();
    Prov.set_enabled capture;
    Fun.protect ~finally:(fun () -> Prov.set_enabled false) @@ fun () ->
    let vm = Vm.of_source ~algorithm src in
    let before = List.map choice_total [ "incremental"; "reevaluate" ] in
    ignore (Vm.apply vm (swap vm));
    let moved = List.map2 (fun c b -> choice_total c - b) [ "incremental"; "reevaluate" ] before in
    let access = Vm.provenance_access vm in
    let why =
      Relation.fold
        (fun tup _ acc ->
          Json.to_string (Pq.why_json (Pq.why access "path" tup)) :: acc)
        (Vm.relation vm "path") []
      |> List.sort compare
    in
    (moved, why)
  in
  let on_moved, on_why = run ~capture:true Vm.Auto in
  let off_moved, off_why = run ~capture:false Vm.Auto in
  let _, dred_why = run ~capture:false Vm.Dred_counted in
  Alcotest.(check (list int)) "capture on: the batch re-evaluates" [ 0; 1 ] on_moved;
  Alcotest.(check (list int)) "capture off: the same choice" on_moved off_moved;
  Alcotest.(check (list string)) "why equal on and off" off_why on_why;
  Alcotest.(check (list string)) "why equals explicit counted DRed's" dred_why on_why

(* ------------------------------------------------------------------ *)
(* Randomized properties                                                *)
(* ------------------------------------------------------------------ *)

let nodes = 10
let edges = 25
let steps = 3

(* Aggregate-free variant of the differential suite's program shapes. *)
type shape = {
  seed : int;
  union_hop : bool;
  tri : bool;
  negation : bool;
  cmp : bool;
}

let source_of s =
  let b = Buffer.create 256 in
  Buffer.add_string b "hop(X, Y) :- link(X, Z), link(Z, Y).\n";
  if s.union_hop then Buffer.add_string b "hop(X, Y) :- link(X, Y).\n";
  if s.tri || s.negation then
    Buffer.add_string b "tri(X, Y) :- hop(X, Z), link(Z, Y).\n";
  if s.negation then
    Buffer.add_string b "only_tri(X, Y) :- tri(X, Y), not hop(X, Y).\n";
  if s.cmp then Buffer.add_string b "up_hop(X, Y) :- hop(X, Y), X < Y.\n";
  Buffer.contents b

let arb_shape =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "seed=%d\n%s" s.seed (source_of s))
    QCheck.Gen.(
      map
        (fun (seed, (u, t, n, c)) ->
          { seed; union_hop = u; tri = t; negation = n; cmp = c })
        (pair (int_range 1 1_000_000) (tup4 bool bool bool bool)))

let arb_seed =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
    QCheck.Gen.(int_range 1 1_000_000)

let with_domains d f =
  let prev = Ivm_par.domains () in
  Ivm_par.set_domains d;
  Fun.protect ~finally:(fun () -> Ivm_par.set_domains prev) f

(* Walk a why tree, failing on anything that is not a current
   derivation ending in base facts (or, when [allow_cycle], a cycle). *)
let check_tree ~allow_cycle access root =
  let rule_texts = Hashtbl.create 8 in
  let program_rule p rule =
    let texts =
      match Hashtbl.find_opt rule_texts p with
      | Some texts -> texts
      | None ->
        let texts = List.map Pretty.rule_to_string (access.Pq.rules_for p) in
        Hashtbl.add rule_texts p texts;
        texts
    in
    List.mem rule texts
  in
  let rec walk t =
    if not (access.Pq.holds t.Pq.t_pred t.Pq.t_tuple) then
      failwith
        (Printf.sprintf "node %s does not hold"
           (Pq.fact_to_string t.Pq.t_pred t.Pq.t_tuple));
    match t.Pq.t_kind with
    | Pq.Base ->
      if not (access.Pq.is_base t.Pq.t_pred) then
        failwith (Printf.sprintf "non-base leaf %s" t.Pq.t_pred)
    | Pq.Cycle ->
      if not allow_cycle then failwith "cycle in a nonrecursive tree"
    | Pq.Depth_limit -> failwith "depth limit reached"
    | Pq.Unsupported ->
      failwith
        (Printf.sprintf "present tuple %s has no derivation"
           (Pq.fact_to_string t.Pq.t_pred t.Pq.t_tuple))
    | Pq.Derived { supports; truncated; _ } ->
      if supports = [] then failwith "derived node with no derivations";
      if truncated then failwith "search ran out of budget";
      List.iter
        (fun d ->
          (* the derivation's rule must be one of the program's own rules —
             never an internal rewrite like DRed's rederivation rules *)
          if not (program_rule t.Pq.t_pred d.Pq.d_rule) then failwith (Printf.sprintf "rule not in program: %s" d.Pq.d_rule);
          List.iter walk d.Pq.d_children)
        supports
  in
  walk root

(** Drive one algorithm over a seeded change stream, then check every
    present view tuple's [why] tree against the final database state. *)
let scenario ~semantics ~src ~load ~evaluate ~maintain ~next ~max_depth
    ~allow_cycle seed =
  with_domains 1 @@ fun () ->
  let rng = Prng.create seed in
  let program = Program.make (Parser.parse_rules src) in
  let db = Database.create ~semantics program in
  Database.load db "link" (load rng);
  evaluate db;
  let derived = Program.derived_preds program in
  for _ = 1 to steps do
    maintain db (next rng db)
  done;
  let access = access_of db in
  List.iter
    (fun p ->
      Relation.iter
        (fun tup _ ->
          (match Pq.why ~max_depth ~max_width:8 access p tup with
          | Pq.Why_tree t -> check_tree ~allow_cycle access t
          | Pq.Why_absent | Pq.Why_unknown_pred ->
            failwith "why did not return a tree for a present tuple");
          match Pq.whynot access p tup with
          | Pq.Whynot_present _ -> ()
          | _ ->
            failwith
              (Printf.sprintf "why not fired for present %s"
                 (Pq.fact_to_string p tup)))
        (Database.relation db p))
    derived;
  true

let mixed_stream rng db =
  Update_gen.mixed rng db "link" ~nodes ~dels:(Prng.int rng 4)
    ~ins:(Prng.int rng 4)

let random_graph rng = Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges)

let nonrec_prop ~semantics ~maintain s =
  scenario ~semantics ~src:(source_of s) ~load:random_graph
    ~evaluate:Seminaive.evaluate ~maintain ~next:mixed_stream ~max_depth:8
    ~allow_cycle:false s.seed

let property_tests =
  [
    q ~count:40 "counting: why edges validate, leaves are base (set)" arb_shape
      (nonrec_prop ~semantics:Database.Set_semantics ~maintain:(fun db c ->
           ignore (Counting.maintain db c)));
    q ~count:25 "counting: why edges validate (duplicate counts)" arb_shape
      (nonrec_prop ~semantics:Database.Duplicate_semantics ~maintain:(fun db c ->
           ignore (Counting.maintain db c)));
    q ~count:30 "dred: why edges validate, leaves are base (nonrecursive)"
      arb_shape
      (nonrec_prop ~semantics:Database.Set_semantics ~maintain:(fun db c ->
           ignore (Dred.maintain db c)));
    q ~count:20 "pf: why edges validate, leaves are base (nonrecursive)"
      arb_shape
      (nonrec_prop ~semantics:Database.Set_semantics ~maintain:(fun db c ->
           ignore (Pf.maintain db c)));
    q ~count:20 "dred: why edges validate (recursive closure)" arb_seed
      (fun seed ->
        scenario ~semantics:Database.Set_semantics
          ~src:Programs.transitive_closure ~load:random_graph
          ~evaluate:Seminaive.evaluate
          ~maintain:(fun db c -> ignore (Dred.maintain db c))
          ~next:mixed_stream ~max_depth:64 ~allow_cycle:true seed);
    q ~count:15 "pf: why edges validate (recursive closure)" arb_seed
      (fun seed ->
        scenario ~semantics:Database.Set_semantics
          ~src:Programs.transitive_closure ~load:random_graph
          ~evaluate:Seminaive.evaluate
          ~maintain:(fun db c -> ignore (Pf.maintain db c))
          ~next:mixed_stream ~max_depth:64 ~allow_cycle:true seed);
    (* recursive counting needs acyclic data: layered DAG, deletions only *)
    q ~count:15 "recursive counting: why edges validate (DAG deletions)"
      arb_seed
      (fun seed ->
        scenario ~semantics:Database.Duplicate_semantics
          ~src:Programs.transitive_closure
          ~load:(fun rng ->
            Graph_gen.tuples
              (Graph_gen.layered_dag rng ~layers:5 ~width:4 ~out_degree:2))
          ~evaluate:Rc.evaluate
          ~maintain:(fun db c -> ignore (Rc.maintain db c))
          ~next:(fun rng db ->
            Update_gen.deletions rng db "link" (Prng.int rng 3))
          ~max_depth:64 ~allow_cycle:true seed);
  ]

let suite =
  [
    Alcotest.test_case "why: present tuple tree" `Quick test_why_present_tuple;
    Alcotest.test_case "why: absent / unknown" `Quick test_why_absent_and_unknown;
    Alcotest.test_case "insert/delete lineage" `Quick test_insert_delete_lineage;
    Alcotest.test_case "why not: failing subgoal" `Quick
      test_whynot_reports_failing_subgoal;
    Alcotest.test_case "rule change refreshes supports" `Quick
      test_rule_change_refreshes_supports;
    Alcotest.test_case "why needs no capture" `Quick test_why_needs_no_capture;
    Alcotest.test_case "explain_json" `Quick test_explain_json;
    Alcotest.test_case "dred: recursive why + purge" `Quick
      test_dred_recursive_why;
    Alcotest.test_case "why builds no index" `Quick test_why_builds_no_index;
  ]
  @ property_tests
  @ [
      Alcotest.test_case "Auto's choice does not depend on the provenance switch"
        `Quick
        test_auto_ignores_provenance_switch;
    ]
