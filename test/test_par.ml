(** Unit tests for the [ivm_par] domain pool and [parallel_map]:
    ordering, inline fast paths, load-balanced claiming, exception
    propagation, pool reuse after failure, and the domain-count knob. *)

open Util

exception Boom of int

let with_domains d f =
  let prev = Ivm_par.domains () in
  Ivm_par.set_domains d;
  Fun.protect ~finally:(fun () -> Ivm_par.set_domains prev) f

let squares n = Array.init n (fun i -> fun () -> i * i)
let expected n = Array.init n (fun i -> i * i)

let results_in_task_order () =
  with_domains 3 (fun () ->
      Alcotest.(check (array int))
        "100 tasks on 3 domains" (expected 100)
        (Ivm_par.parallel_map (squares 100)))

let inline_paths () =
  with_domains 4 (fun () ->
      Alcotest.(check (array int)) "empty batch" [||] (Ivm_par.parallel_map [||]);
      Alcotest.(check (array int))
        "single task runs inline" (expected 1)
        (Ivm_par.parallel_map (squares 1)));
  with_domains 1 (fun () ->
      Alcotest.(check bool) "domains 1 is sequential" true (Ivm_par.sequential ());
      Alcotest.(check (array int))
        "sequential batch" (expected 50)
        (Ivm_par.parallel_map (squares 50)))

let skewed_tasks () =
  (* wildly uneven task costs still produce per-index results *)
  with_domains 4 (fun () ->
      let tasks =
        Array.init 40 (fun i ->
            fun () ->
              let spin = if i mod 7 = 0 then 10_000 else 10 in
              let acc = ref 0 in
              for k = 1 to spin do acc := !acc + (k mod 3) done;
              ignore !acc;
              i)
      in
      Alcotest.(check (array int))
        "skewed batch keeps indexing" (Array.init 40 Fun.id)
        (Ivm_par.parallel_map tasks))

let exception_propagates () =
  with_domains 4 (fun () ->
      let tasks =
        Array.init 20 (fun i ->
            fun () -> if i = 13 then raise (Boom i) else i)
      in
      (match Ivm_par.parallel_map tasks with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 13 -> ()
      | exception e -> raise e);
      (* the pool drained the batch and stays usable *)
      Alcotest.(check (array int))
        "pool reusable after failure" (expected 30)
        (Ivm_par.parallel_map (squares 30)))

let set_domains_clamps () =
  with_domains 1 (fun () ->
      Ivm_par.set_domains 0;
      Alcotest.(check int) "clamped to 1" 1 (Ivm_par.domains ());
      Ivm_par.set_domains (-3);
      Alcotest.(check int) "negative clamped" 1 (Ivm_par.domains ());
      Ivm_par.set_domains 4;
      Alcotest.(check int) "set to 4" 4 (Ivm_par.domains ());
      Alcotest.(check bool) "not sequential" false (Ivm_par.sequential ()))

let resize_midstream () =
  (* growing and shrinking the pool between batches keeps results right *)
  with_domains 2 (fun () ->
      Alcotest.(check (array int)) "at 2" (expected 25)
        (Ivm_par.parallel_map (squares 25));
      Ivm_par.set_domains 4;
      Alcotest.(check (array int)) "grown to 4" (expected 25)
        (Ivm_par.parallel_map (squares 25));
      Ivm_par.set_domains 1;
      Alcotest.(check (array int)) "shrunk to 1" (expected 25)
        (Ivm_par.parallel_map (squares 25)))

let pool_direct () =
  let pool = Ivm_par.Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Ivm_par.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "size" 3 (Ivm_par.Pool.size pool);
      let hits = Array.make 64 0 in
      Ivm_par.Pool.run_tasks pool ~n:64 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int))
        "every task ran exactly once" (Array.make 64 1) hits);
  (* shutdown is idempotent *)
  Ivm_par.Pool.shutdown pool

let split_merge_roundtrip () =
  (* Par_eval.split partitions; merging the parts restores the relation *)
  let r = Relation.create 2 in
  for i = 0 to 40 do
    Relation.add r (Tuple.of_ints [ i mod 13; i mod 7 ]) ((i mod 3) + 1)
  done;
  let parts = Ivm_eval.Par_eval.split r ~chunks:4 in
  Alcotest.(check bool) "several parts" true (Array.length parts >= 2);
  let whole = Relation.create 2 in
  Array.iter (fun p -> Relation.union_into ~into:whole p) parts;
  check_rel "split ∘ merge = id" r whole

(* Regression: DRed rule bodies referencing predicates absent from the
   change set.  Rederivation and insertion tasks build new views for
   every body predicate, so resolving a view must never insert into the
   context — a lazy first touch inside a task would be an unsynchronized
   Hashtbl mutation from multiple domains (and once was). *)
let dred_unchanged_preds_parallel () =
  let src =
    {|
      reach(X, Y) :- link(X, Y), allowed(Y).
      reach(X, Y) :- reach(X, Z), link(Z, Y), allowed(Y).
      fallback(X, Y) :- link(X, Y), not allowed(Y).
      allowed(b). allowed(c). allowed(d).
      link(a,b). link(b,c). link(c,d). link(a,c). link(c,e).
    |}
  in
  let check_against_recompute db changes =
    let oracle = Database.copy db in
    List.iter
      (fun (pred, delta) ->
        let stored = Database.relation oracle pred in
        Relation.iter (fun tup c -> Relation.add stored tup c) delta)
      (Ivm.Changes.normalize_base oracle changes);
    Seminaive.evaluate oracle;
    ignore (Ivm.Dred.maintain db changes);
    List.iter
      (fun p ->
        if not (Relation.equal_sets (rel db p) (rel oracle p)) then
          Alcotest.failf "%s: DRed %s <> recomputed %s" p
            (Relation.to_string (rel db p))
            (Relation.to_string (rel oracle p)))
      (Program.derived_preds (Database.program db))
  in
  with_domains 4 (fun () ->
      for _ = 1 to 5 do
        let db = db_of_source src in
        let program = Database.program db in
        check_against_recompute db
          (Ivm.Changes.deletions program "link" [ Tuple.of_strs [ "b"; "c" ] ]);
        check_against_recompute db
          (Ivm.Changes.insertions program "link" [ Tuple.of_strs [ "e"; "d" ] ])
      done)

(* Per-domain counter shards lose no increments: identical parallel runs
   count identical work, and the registry reads the same totals with no
   refresh step. *)
let stats_exact_under_parallel () =
  let module Stats = Ivm_eval.Stats in
  let src =
    {|
      hop(X, Y) :- link(X, Z), link(Z, Y).
      link(a,b). link(b,c). link(c,d). link(b,d). link(d,a).
    |}
  in
  with_domains 4 (fun () ->
      let run () =
        let db = db_of_source src in
        let batch =
          Ivm.Changes.insertions (Database.program db) "link"
            [ Tuple.of_strs [ "d"; "b" ]; Tuple.of_strs [ "a"; "d" ] ]
        in
        Stats.reset ();
        ignore (Ivm.Counting.maintain db batch);
        Stats.snapshot ()
      in
      let a = run () in
      let b = run () in
      Alcotest.(check bool) "work was counted" true (a.Stats.snap_probes > 0);
      Alcotest.(check int) "derivations repeat exactly" a.Stats.snap_derivations
        b.Stats.snap_derivations;
      Alcotest.(check int) "probes repeat exactly" a.Stats.snap_probes
        b.Stats.snap_probes;
      Alcotest.(check int) "scans repeat exactly" a.Stats.snap_tuples_scanned
        b.Stats.snap_tuples_scanned;
      Alcotest.(check int) "rule applications repeat exactly"
        a.Stats.snap_rule_applications b.Stats.snap_rule_applications;
      Alcotest.(check int) "the registry counter agrees"
        b.Stats.snap_derivations
        (Ivm_obs.Metrics.counter_value
           (Ivm_obs.Metrics.counter "ivm_derivations_total")))

let suite =
  [
    quick "parallel_map keeps task order" results_in_task_order;
    quick "inline fast paths" inline_paths;
    quick "skewed task costs" skewed_tasks;
    quick "exception propagation + reuse" exception_propagates;
    quick "set_domains clamps" set_domains_clamps;
    quick "pool resize between batches" resize_midstream;
    quick "pool direct run_tasks" pool_direct;
    quick "Par_eval split/merge round-trip" split_merge_roundtrip;
    quick "DRed: unchanged body predicates, 4 domains" dred_unchanged_preds_parallel;
    quick "Stats exact under parallel runs, registry agrees" stats_exact_under_parallel;
  ]
