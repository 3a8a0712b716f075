(** Property-based suites: the paper's correctness theorems checked against
    the recomputation oracle on randomized data and update streams.

    - Theorem 4.1 (counting computes exactly countν − count) ⇒ after
      maintenance, stored counts equal a from-scratch evaluation;
    - Theorem 7.1 (DRed yields exactly the derivable tuples) ⇒ after
      maintenance, stored sets equal a from-scratch evaluation;
    - algebraic laws of the [⊎] operator of Section 3. *)

open Util
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Programs = Ivm_workload.Programs

let q ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

(** A random edge list over [nodes] labelled nodes plus a random update
    stream: each step deletes up to [d] stored edges and inserts up to [i]
    fresh ones. *)
let scenario_gen ~nodes ~edges ~steps ~dels ~ins =
  QCheck.Gen.(
    map
      (fun seed -> (seed, nodes, edges, steps, dels, ins))
      (int_range 1 1_000_000))
  |> QCheck.make ~print:(fun (seed, _, _, _, _, _) -> Printf.sprintf "seed=%d" seed)

let build_graph_db ?(semantics = Database.Set_semantics) ~src ~pred rng ~nodes
    ~edges =
  let rules = Ivm_datalog.Parser.parse_rules src in
  let program = Program.make rules in
  let db = Database.create ~semantics program in
  Database.load db pred
    (Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges));
  Seminaive.evaluate db;
  db

let random_changes rng db pred ~nodes ~dels ~ins =
  Ivm_workload.Update_gen.mixed rng db pred ~nodes
    ~dels:(Prng.int rng (dels + 1))
    ~ins:(Prng.int rng (ins + 1))

let derived_agree ~counted a b =
  List.for_all
    (fun p ->
      let ra = Database.relation a p and rb = Database.relation b p in
      if counted then Relation.equal_counted ra rb else Relation.equal_sets ra rb)
    (Program.derived_preds (Database.program a))

(** Drive [maintain] and the recompute oracle side by side over a stream of
    random batches, comparing after every step. *)
let soak ~semantics ~src ~pred ~counted ~maintain (seed, nodes, edges, steps, dels, ins)
    =
  let rng = Prng.create seed in
  let db = build_graph_db ~semantics ~src ~pred rng ~nodes ~edges in
  let oracle = Database.copy db in
  let ok = ref true in
  for _ = 1 to steps do
    if !ok then begin
      let changes = random_changes rng db pred ~nodes ~dels ~ins in
      maintain db changes;
      List.iter
        (fun (p, delta) ->
          let stored = Database.relation oracle p in
          Relation.iter (fun tup c -> Relation.add stored tup c) delta)
        (Changes.normalize_base oracle changes);
      Seminaive.evaluate oracle;
      ok := !ok && derived_agree ~counted db oracle
    end
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Counting vs recompute                                                *)
(* ------------------------------------------------------------------ *)

let counting_props =
  [
    q ~count:120 "counting/hop+tri_hop duplicates == recompute"
      (scenario_gen ~nodes:12 ~edges:30 ~steps:4 ~dels:3 ~ins:3)
      (soak ~semantics:Database.Duplicate_semantics ~src:Programs.hop_tri_hop
         ~pred:"link" ~counted:true ~maintain:(fun db c ->
           ignore (Counting.maintain db c)));
    q ~count:120 "counting/hop+tri_hop sets == recompute"
      (scenario_gen ~nodes:12 ~edges:30 ~steps:4 ~dels:3 ~ins:3)
      (soak ~semantics:Database.Set_semantics ~src:Programs.hop_tri_hop
         ~pred:"link" ~counted:true ~maintain:(fun db c ->
           ignore (Counting.maintain db c)));
    q ~count:100 "counting/negation == recompute"
      (scenario_gen ~nodes:10 ~edges:25 ~steps:4 ~dels:3 ~ins:3)
      (soak ~semantics:Database.Duplicate_semantics ~src:Programs.only_tri_hop
         ~pred:"link" ~counted:true ~maintain:(fun db c ->
           ignore (Counting.maintain db c)));
  ]

(* Aggregation needs 3-column costed edges; special-cased scenario. *)
let aggregation_prop =
  q ~count:100 "counting/min-cost aggregation == recompute"
    (scenario_gen ~nodes:10 ~edges:25 ~steps:3 ~dels:3 ~ins:3)
    (fun (seed, nodes, edges, steps, dels, ins) ->
      let rng = Prng.create seed in
      let rules = Ivm_datalog.Parser.parse_rules Programs.min_cost_hop in
      let program = Program.make rules in
      let db = Database.create ~semantics:Database.Set_semantics program in
      Database.load db "link"
        (Graph_gen.costed_tuples rng ~max_cost:9
           (Graph_gen.random rng ~nodes ~edges));
      Seminaive.evaluate db;
      let oracle = Database.copy db in
      let ok = ref true in
      for _ = 1 to steps do
        if !ok then begin
          let deletions =
            Ivm_workload.Update_gen.deletions rng db "link" (Prng.int rng (dels + 1))
          in
          let stored = Database.relation db "link" in
          let rec fresh k acc =
            if k = 0 then acc
            else
              let t =
                Tuple.make
                  [|
                    Value.Int (Prng.int rng nodes);
                    Value.Int (Prng.int rng nodes);
                    Value.Int (1 + Prng.int rng 9);
                  |]
              in
              if Relation.mem stored t then fresh k acc else fresh (k - 1) (t :: acc)
          in
          let insertions =
            Changes.insertions program "link" (fresh (Prng.int rng (ins + 1)) [])
          in
          let changes = Changes.merge deletions insertions in
          ignore (Counting.maintain db changes);
          List.iter
            (fun (p, delta) ->
              let stored = Database.relation oracle p in
              Relation.iter (fun tup c -> Relation.add stored tup c) delta)
            (Changes.normalize_base oracle changes);
          Seminaive.evaluate oracle;
          ok := !ok && derived_agree ~counted:true db oracle
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* DRed vs recompute                                                    *)
(* ------------------------------------------------------------------ *)

let dred_props =
  [
    q ~count:90 "dred/transitive closure == recompute"
      (scenario_gen ~nodes:10 ~edges:20 ~steps:4 ~dels:3 ~ins:3)
      (soak ~semantics:Database.Set_semantics ~src:Programs.transitive_closure
         ~pred:"link" ~counted:false ~maintain:(fun db c ->
           ignore (Dred.maintain db c)));
    q ~count:70 "dred/right-linear closure == recompute"
      (scenario_gen ~nodes:10 ~edges:20 ~steps:3 ~dels:3 ~ins:3)
      (soak ~semantics:Database.Set_semantics
         ~src:Programs.transitive_closure_right ~pred:"link" ~counted:false
         ~maintain:(fun db c -> ignore (Dred.maintain db c)));
    q ~count:70 "dred/negation over recursion == recompute"
      (scenario_gen ~nodes:8 ~edges:14 ~steps:3 ~dels:2 ~ins:2)
      (fun (seed, nodes, edges, steps, dels, ins) ->
        let src =
          {|
            reach(X) :- source(X).
            reach(Y) :- reach(X), link(X, Y).
            dark(X) :- node(X), not reach(X).
          |}
        in
        let rng = Prng.create seed in
        let rules = Ivm_datalog.Parser.parse_rules src in
        let program = Program.make rules in
        let db = Database.create program in
        Database.load db "link"
          (Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges));
        Database.load db "node"
          (List.init nodes (fun i -> Tuple.make [| Value.Int i |]));
        Database.load db "source" [ Tuple.make [| Value.Int 0 |] ];
        Seminaive.evaluate db;
        let oracle = Database.copy db in
        let ok = ref true in
        for _ = 1 to steps do
          if !ok then begin
            let changes = random_changes rng db "link" ~nodes ~dels ~ins in
            ignore (Dred.maintain db changes);
            List.iter
              (fun (p, delta) ->
                let stored = Database.relation oracle p in
                Relation.iter (fun tup c -> Relation.add stored tup c) delta)
              (Changes.normalize_base oracle changes);
            Seminaive.evaluate oracle;
            ok := !ok && derived_agree ~counted:false db oracle
          end
        done;
        !ok);
    q ~count:30 "pf == dred final state"
      (scenario_gen ~nodes:9 ~edges:18 ~steps:2 ~dels:3 ~ins:2)
      (fun (seed, nodes, edges, steps, dels, ins) ->
        let rng = Prng.create seed in
        let mk rng' =
          build_graph_db ~src:Programs.transitive_closure ~pred:"link" rng'
            ~nodes ~edges
        in
        let db_pf = mk (Prng.create seed) in
        let db_dred = mk (Prng.create seed) in
        let ok = ref true in
        for _ = 1 to steps do
          if !ok then begin
            let changes = random_changes rng db_pf "link" ~nodes ~dels ~ins in
            ignore (Ivm_baselines.Pf.maintain db_pf changes);
            ignore (Dred.maintain db_dred changes);
            ok :=
              !ok
              && Relation.equal_sets
                   (Database.relation db_pf "path")
                   (Database.relation db_dred "path")
          end
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* ⊎ algebra (Section 3)                                                *)
(* ------------------------------------------------------------------ *)

let rel_gen =
  QCheck.Gen.(
    map
      (fun entries ->
        Relation.of_list 2
          (List.map
             (fun (a, b, c) ->
               (Tuple.of_ints [ a mod 5; b mod 5 ], (c mod 7) - 3))
             entries))
      (list_size (int_range 0 20) (triple small_nat small_nat small_nat)))

let arb_rel = QCheck.make ~print:Relation.to_string rel_gen

let uplus_props =
  [
    q ~count:200 "⊎ is commutative" (QCheck.pair arb_rel arb_rel)
      (fun (a, b) -> Relation.equal_counted (Relation.union a b) (Relation.union b a));
    q ~count:200 "⊎ is associative" (QCheck.triple arb_rel arb_rel arb_rel)
      (fun (a, b, c) ->
        Relation.equal_counted
          (Relation.union (Relation.union a b) c)
          (Relation.union a (Relation.union b c)));
    q ~count:200 "∅ is the ⊎ identity" arb_rel (fun a ->
        Relation.equal_counted (Relation.union a (Relation.create 2)) a);
    q ~count:200 "r ⊎ (−r) = ∅" arb_rel (fun a ->
        Relation.is_empty (Relation.union a (Relation.negate a)));
    q ~count:200 "counts of ⊎ add pointwise" (QCheck.pair arb_rel arb_rel)
      (fun (a, b) ->
        let u = Relation.union a b in
        let check r =
          not
            (Relation.exists
               (fun t _ -> Relation.count u t <> Relation.count a t + Relation.count b t)
               r)
        in
        check a && check b);
    q ~count:200 "set_delta turns old into new" (QCheck.pair arb_rel arb_rel)
      (fun (old_, new_) ->
        let old_ = Relation.positive_part old_ in
        let new_ = Relation.positive_part new_ in
        let d = Relation.set_delta ~old_ ~new_ in
        Relation.equal_sets (Relation.union (Relation.to_set old_) d)
          (Relation.to_set new_));
  ]

(* ------------------------------------------------------------------ *)
(* Parser round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let rule_gen : Ivm_datalog.Ast.rule QCheck.Gen.t =
  let open QCheck.Gen in
  let open Ivm_datalog.Ast in
  let var = map (fun i -> Printf.sprintf "X%d" i) (int_range 0 3) in
  let term =
    frequency
      [
        (3, map (fun v -> Var v) var);
        (1, map (fun n -> Const (Value.Int n)) (int_range 0 9));
        (1, map (fun s -> Const (Value.Str s)) (oneofl [ "a"; "b"; "c" ]));
      ]
  in
  let pred = oneofl [ "p"; "q"; "r" ] in
  let atom = map2 (fun p ts -> { pred = p; args = List.map (fun t -> Eterm t) ts })
      pred (list_size (int_range 1 3) term) in
  let pos_lit = map (fun a -> Lpos a) atom in
  let neg_lit = map (fun a -> Lneg a) atom in
  let cmp_lit =
    map2
      (fun v n -> Lcmp (Eterm (Var v), Lt, Eterm (Const (Value.Int n))))
      var (int_range 0 9)
  in
  let agg_lit =
    (* groupby(u(X0,..,Xn-1), [X0,..,Xn-2], R = fn(Xn-1)); count() takes no
       argument and parses back with the same placeholder the AST helper
       uses, so round-trip equality holds structurally. *)
    map2
      (fun fn n ->
        let vs = List.init n (fun i -> Printf.sprintf "X%d" i) in
        let by = List.filteri (fun i _ -> i < n - 1) vs in
        let arg =
          match fn with
          | Count -> Eterm (Const (Value.Int 0))
          | _ -> Eterm (Var (List.nth vs (n - 1)))
        in
        Lagg
          {
            agg_source =
              { pred = "u"; args = List.map (fun v -> Eterm (Var v)) vs };
            agg_group_by = by;
            agg_result = "R";
            agg_fn = fn;
            agg_arg = arg;
          })
      (oneofl [ Count; Sum; Min; Max; Avg ])
      (int_range 2 3)
  in
  let body =
    list_size (int_range 1 3)
      (frequency [ (4, pos_lit); (1, neg_lit); (1, cmp_lit); (1, agg_lit) ])
  in
  map2
    (fun b vars ->
      {
        head = { pred = "h"; args = List.map (fun v -> Eterm (Var v)) vars };
        body = b;
      })
    body
    (list_size (int_range 0 2) var)

let roundtrip_prop =
  q ~count:300 "pretty ∘ parse = id on rules"
    (QCheck.make ~print:Ivm_datalog.Pretty.rule_to_string rule_gen)
    (fun rule ->
      let printed = Ivm_datalog.Pretty.rule_to_string rule in
      match Ivm_datalog.Parser.parse_rule printed with
      | parsed -> Ivm_datalog.Ast.equal_rule rule parsed
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* Aggregate accumulators vs oracle                                     *)
(* ------------------------------------------------------------------ *)

module Agg = Ivm_eval.Agg

(* A random multiset, inserted and partly deleted in random orders,
   reads the same value as a one-shot aggregation of the survivors in
   any order: float SUM/AVG included, whose value is a function of the
   multiset. *)
let agg_prop ?(value = QCheck.Gen.(map Value.int (int_range 0 10))) fn name =
  let contribution = QCheck.Gen.(triple value (int_range 1 3) bool) in
  let shuffled deleted vs =
    QCheck.Gen.shuffle_l (List.filter (fun (_, _, d) -> d = deleted) vs)
  in
  q ~count:200 name
    (QCheck.make
       ~print:(fun (ins, _, _) ->
         String.concat "; "
           (List.map
              (fun (v, m, d) ->
                Printf.sprintf "%s x%d%s" (Value.to_string v) m (if d then " del" else ""))
              ins))
       QCheck.Gen.(
         list_size (int_range 0 30) contribution >>= fun vs ->
         triple (shuffle_l vs) (shuffled true vs) (shuffled false vs)))
    (fun (ins, del, kept) ->
      let st = Agg.create fn in
      List.iter (fun (v, m, _) -> Agg.update st v m) ins;
      List.iter (fun (v, m, _) -> Agg.update st v (-m)) del;
      let oracle = Agg.of_seq fn (List.to_seq (List.map (fun (v, m, _) -> (v, m)) kept)) in
      Option.equal Value.equal (Agg.value st) (Agg.value oracle))

let float_value = QCheck.Gen.(map Value.float (float_range (-100.) 100.))

let agg_props =
  [
    agg_prop Ivm_datalog.Ast.Count "agg/count incremental == oracle";
    agg_prop Ivm_datalog.Ast.Sum "agg/sum incremental == oracle";
    agg_prop Ivm_datalog.Ast.Min "agg/min incremental == oracle";
    agg_prop Ivm_datalog.Ast.Max "agg/max incremental == oracle";
    agg_prop Ivm_datalog.Ast.Avg "agg/avg incremental == oracle";
    agg_prop ~value:float_value Ivm_datalog.Ast.Sum "agg/float sum: any update order == oracle";
    agg_prop ~value:float_value Ivm_datalog.Ast.Avg "agg/float avg: any update order == oracle";
  ]

(* ------------------------------------------------------------------ *)
(* Cross-subsystem properties                                           *)
(* ------------------------------------------------------------------ *)

(* Recursive counting projected to sets agrees with DRed on DAG update
   streams (Theorem 4.1's counts vs Theorem 7.1's sets). *)
let rc_vs_dred_prop =
  q ~count:30 "recursive counting (as sets) == dred on DAGs"
    (scenario_gen ~nodes:0 ~edges:0 ~steps:3 ~dels:2 ~ins:0)
    (fun (seed, _, _, steps, dels, _) ->
      let mk semantics =
        let rng = Prng.create seed in
        let program =
          Program.make (Ivm_datalog.Parser.parse_rules Programs.transitive_closure)
        in
        let db = Database.create ~semantics program in
        Database.load db "link"
          (Graph_gen.tuples
             (Graph_gen.layered_dag rng ~layers:5 ~width:4 ~out_degree:2));
        (db, rng)
      in
      let db_rc, rng_rc = mk Database.Duplicate_semantics in
      Ivm.Recursive_counting.evaluate db_rc;
      let db_dred, rng_dred = mk Database.Set_semantics in
      Seminaive.evaluate db_dred;
      let ok = ref true in
      for _ = 1 to steps do
        if !ok then begin
          let k = Prng.int rng_rc (dels + 1) in
          let c_rc = Ivm_workload.Update_gen.deletions rng_rc db_rc "link" k in
          let _ = Prng.int rng_dred (dels + 1) in
          let c_dred = Ivm_workload.Update_gen.deletions rng_dred db_dred "link" k in
          (* same seed streams → same victims *)
          ignore (Ivm.Recursive_counting.maintain db_rc c_rc);
          ignore (Dred.maintain db_dred c_dred);
          ok :=
            !ok
            && Relation.equal_sets
                 (Database.relation db_rc "path")
                 (Database.relation db_dred "path")
        end
      done;
      !ok)

(* The SQL translation of Example 1.1 computes the same view as the
   Datalog original, on random data. *)
let sql_equiv_prop =
  q ~count:40 "SQL hop == Datalog hop"
    (scenario_gen ~nodes:10 ~edges:25 ~steps:1 ~dels:0 ~ins:0)
    (fun (seed, nodes, edges, _, _, _) ->
      let rng = Prng.create seed in
      let graph = Graph_gen.random rng ~nodes ~edges in
      let dl =
        let program = Program.make (Ivm_datalog.Parser.parse_rules Programs.hop) in
        let db = Database.create ~semantics:Database.Duplicate_semantics program in
        Database.load db "link" (Graph_gen.tuples graph);
        Seminaive.evaluate db;
        db
      in
      let sql =
        let vm =
          Ivm_sql.Sql_translate.view_manager
            ~semantics:Database.Duplicate_semantics
            {|
              CREATE TABLE link(s, d);
              CREATE VIEW hop(s, d) AS
                SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
            |}
        in
        ignore (Ivm.View_manager.insert vm "link" (Graph_gen.tuples graph));
        vm
      in
      Relation.equal_counted (Database.relation dl "hop")
        (Ivm.View_manager.relation sql "hop"))

(* Database dump → reparse → re-materialize is the identity. *)
let dump_roundtrip_prop =
  q ~count:40 "dump ∘ load = id"
    (scenario_gen ~nodes:8 ~edges:18 ~steps:1 ~dels:0 ~ins:0)
    (fun (seed, nodes, edges, _, _, _) ->
      let rng = Prng.create seed in
      let program =
        Program.make (Ivm_datalog.Parser.parse_rules Programs.hop_tri_hop)
      in
      let db = Database.create ~semantics:Database.Duplicate_semantics program in
      Database.load db "link" (Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges));
      (* duplicate some facts to exercise multiplicity serialization *)
      Database.load db "link"
        (Graph_gen.tuples (Prng.sample rng 3 (Graph_gen.random rng ~nodes ~edges)));
      Seminaive.evaluate db;
      let text = Format.asprintf "%a" Database.dump db in
      let statements = Ivm_datalog.Parser.parse_program text in
      let rules, facts = Ivm_datalog.Parser.split statements in
      let program2 = Program.make rules in
      let db2 = Database.create ~semantics:Database.Duplicate_semantics program2 in
      List.iter
        (fun (p, vals) ->
          Database.load db2 p [ Ivm_relation.Tuple.of_list vals ])
        facts;
      Seminaive.evaluate db2;
      Database.agree db db2)

(* Trigger deltas compose: initial view ⊎ all dispatched deltas = final
   view. *)
let trigger_composition_prop =
  q ~count:40 "view ⊎ Σ trigger deltas = final view"
    (scenario_gen ~nodes:8 ~edges:20 ~steps:4 ~dels:2 ~ins:2)
    (fun (seed, nodes, edges, steps, dels, ins) ->
      let rng = Prng.create seed in
      let vm =
        Ivm.View_manager.create ~semantics:Database.Duplicate_semantics
          ~algorithm:Ivm.View_manager.Counting
          ~facts:[ ("link", Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges)) ]
          (Ivm_datalog.Parser.parse_rules Programs.hop_tri_hop)
      in
      let tr = Ivm.Triggers.create vm in
      let acc = Relation.copy (Ivm.View_manager.relation vm "hop") in
      let _ =
        Ivm.Triggers.subscribe tr "hop" (fun delta -> Relation.union_into ~into:acc delta)
      in
      let db = Ivm.View_manager.database vm in
      for _ = 1 to steps do
        let changes = random_changes rng db "link" ~nodes ~dels ~ins in
        ignore (Ivm.Triggers.apply tr changes)
      done;
      Relation.equal_counted acc (Ivm.View_manager.relation vm "hop"))

(* The parser never crashes: any input either parses or raises its own
   error types. *)
let parser_total_prop =
  q ~count:500 "parser is total (errors, never crashes)"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun s ->
      match Ivm_datalog.Parser.parse_program s with
      | _ -> true
      | exception Ivm_datalog.Parser.Parse_error _ -> true
      | exception Ivm_datalog.Lexer.Lex_error _ -> true)

let sql_parser_total_prop =
  q ~count:500 "SQL parser is total"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun s ->
      match Ivm_sql.Sql_parser.parse_script s with
      | _ -> true
      | exception Ivm_sql.Sql_parser.Parse_error _ -> true
      | exception Ivm_sql.Sql_lexer.Lex_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Interning and cached tuple hashes (PR 5 kernel pass)                 *)
(* ------------------------------------------------------------------ *)

(* Mixed-kind values, strings drawn from a small alphabet so duplicates
   (and thus interning collisions) are common. *)
let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.int (n mod 7)) small_nat;
        map (fun n -> Value.float (float_of_int (n mod 7))) small_nat;
        map
          (fun n -> Value.str (String.make ((n mod 3) + 1) (Char.chr (97 + (n mod 4)))))
          small_nat;
        map Value.bool bool;
      ])

let mixed_tuple_gen =
  QCheck.Gen.(map Tuple.of_list (list_size (int_range 0 5) value_gen))

let arb_mixed_tuple = QCheck.make ~print:Tuple.to_string mixed_tuple_gen

let interning_props =
  [
    q ~count:500 "interning: equal strings share one box"
      QCheck.(string_of_size (QCheck.Gen.int_range 0 12))
      (fun s ->
        (* String.sub forces a distinct heap string with equal contents *)
        Value.str s == Value.str (String.sub s 0 (String.length s)));
    q ~count:500 "interning preserves Value.equal and Value.hash"
      (QCheck.make QCheck.Gen.(pair value_gen value_gen))
      (fun (a, b) ->
        let ia = Value.intern a and ib = Value.intern b in
        Value.equal ia a && Value.hash ia = Value.hash a
        && Value.equal a b = Value.equal ia ib
        && ((not (Value.equal a b)) || Value.hash ia = Value.hash ib));
    q ~count:500 "cached hash: Tuple.equal implies equal Tuple.hash"
      (QCheck.pair arb_mixed_tuple arb_mixed_tuple)
      (fun (a, b) -> (not (Tuple.equal a b)) || Tuple.hash a = Tuple.hash b);
    q ~count:500 "cached hash survives rebuild / map / project / append"
      arb_mixed_tuple
      (fun t ->
        let rebuilt = Tuple.of_list (Tuple.to_list t) in
        let all = Array.init (Tuple.arity t) (fun i -> i) in
        Tuple.equal rebuilt t
        && Tuple.hash rebuilt = Tuple.hash t
        && Tuple.equal (Tuple.map (fun v -> v) t) t
        && Tuple.equal (Tuple.project all t) t
        && Tuple.hash (Tuple.project all t) = Tuple.hash t
        && Tuple.arity (Tuple.append t (Value.int 9)) = Tuple.arity t + 1);
  ]

(* Snapshot/WAL codec round-trip: decoded relations are equal (counts
   included) and every decoded string is the canonical interned box, as if
   it had been freshly parsed — the store and a new session share one
   intern table. *)
let wire_roundtrip_prop =
  let rel_of_tuples ts =
    let ts = List.filter (fun t -> Tuple.arity t = 3) ts in
    Relation.of_tuples 3 ts
  in
  q ~count:300 "wire round-trip interns strings"
    (QCheck.make
       QCheck.Gen.(
         map rel_of_tuples
           (list_size (int_range 0 15)
              (map Tuple.of_list (list_repeat 3 value_gen)))))
    (fun r ->
      let encoded =
        Ivm_wire.Wire.block (Ivm_wire.Wire.relation_size r) (fun w ->
            Ivm_wire.Wire.put_relation w r)
      in
      let decoded =
        Ivm_wire.Wire.get_relation (Ivm_wire.Wire.reader (Bytes.to_string encoded))
      in
      let interned = ref true in
      Relation.iter
        (fun t _ ->
          Array.iter
            (fun v ->
              match v with
              | Value.Str s -> if not (v == Value.str s) then interned := false
              | _ -> ())
            (Tuple.to_array t))
        decoded;
      Relation.equal_counted decoded r && !interned)

(* Overlay views behave exactly like the forced union. *)
let overlay_semantics_prop =
  q ~count:200 "overlay ≡ materialized union" (QCheck.pair arb_rel arb_rel)
    (fun (base, delta) ->
      let base = Relation.positive_part base in
      let v = Ivm_relation.Relation_view.Overlay { base; delta } in
      let forced = Relation.union base delta in
      let visible_eq =
        Relation.equal_counted (Ivm_relation.Relation_view.force v) forced
      in
      (* counts agree pointwise on tuples of both sides *)
      let count_eq = ref true in
      Relation.iter
        (fun t _ ->
          if Ivm_relation.Relation_view.count v t <> Relation.count forced t then
            count_eq := false)
        base;
      Relation.iter
        (fun t _ ->
          if Ivm_relation.Relation_view.count v t <> Relation.count forced t then
            count_eq := false)
        delta;
      (* probe on column 0 sees the same tuples as a filtered iter *)
      let probed = ref [] in
      Relation.iter
        (fun t _ ->
          Ivm_relation.Relation_view.probe v [| 0 |] (Tuple.project [| 0 |] t)
            (fun u c -> probed := (u, c) :: !probed))
        forced;
      let deduped =
        List.sort_uniq (fun (a, _) (b, _) -> Tuple.compare a b) !probed
      in
      let expected =
        Relation.fold (fun t c acc -> (t, c) :: acc) forced []
        |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)
      in
      visible_eq && !count_eq
      && List.length deduped >= List.length expected
         (* every forced tuple was reachable by probing its own key *)
      && List.for_all (fun (t, c) -> Relation.count forced t = c) deduped)

let suite =
  counting_props @ [ aggregation_prop ] @ dred_props @ uplus_props
  @ [ roundtrip_prop ] @ agg_props
  @ [ rc_vs_dred_prop; sql_equiv_prop; dump_roundtrip_prop;
      trigger_composition_prop; parser_total_prop; sql_parser_total_prop;
      overlay_semantics_prop ]
  @ interning_props @ [ wire_roundtrip_prop ]
