(** Evaluator edge cases: self joins, repeated variables, constants in
    patterns, arithmetic corner cases, deep strata, empty relations. *)

open Util

let self_join_repeated_vars () =
  let db =
    db_of_source ~semantics:Database.Duplicate_semantics
      {|
        refl(X) :- link(X, X).
        sym(X, Y) :- link(X, Y), link(Y, X).
        link(a,a). link(a,b). link(b,a). link(c,d).
      |}
  in
  let expect = Relation.of_tuples 1 [ Tuple.of_strs [ "a" ] ] in
  check_rel ~counted:false "reflexive" expect (rel db "refl");
  check_rel ~counted:false "symmetric pairs" (rel_of_pairs "aa; ab; ba")
    (rel db "sym")

let repeated_head_vars () =
  let db =
    db_of_source {|
      diag(X, X) :- node(X).
      node(a). node(b).
    |}
  in
  check_rel ~counted:false "diagonal" (rel_of_pairs "aa; bb") (rel db "diag")

let constants_in_body () =
  let db =
    db_of_source {|
      from_a(Y) :- link(a, Y).
      link(a,b). link(a,c). link(b,d).
    |}
  in
  let expect = Relation.of_tuples 1 [ Tuple.of_strs [ "b" ]; Tuple.of_strs [ "c" ] ] in
  check_rel ~counted:false "probe on constant" expect (rel db "from_a")

let float_arithmetic () =
  let db =
    db_of_source
      {|
        scaled(X, S) :- m(X, V), S = V * 2.5.
        avg_v(A) :- groupby(m(X, V), [], A = avg(V)).
        m(a, 2). m(b, 3.0).
      |}
  in
  Alcotest.(check bool) "int promoted" true
    (Relation.mem (rel db "scaled") (Tuple.of_list Value.[ str "a"; float 5.0 ]));
  Alcotest.(check bool) "avg is float" true
    (Relation.mem (rel db "avg_v") (Tuple.of_list Value.[ float 2.5 ]))

let division_by_zero_surfaces () =
  try
    ignore
      (db_of_source {|
          bad(Y) :- m(X), Y = X / 0.
          m(1).
        |});
    Alcotest.fail "expected Type_error"
  with Value.Type_error _ -> ()

let cross_type_comparisons () =
  let db =
    db_of_source
      {|
        low(X) :- m(X, V), V < 2.5.
        m(a, 2). m(b, 3.0). m(c, 2.4).
      |}
  in
  let expect = Relation.of_tuples 1 [ Tuple.of_strs [ "a" ]; Tuple.of_strs [ "c" ] ] in
  check_rel ~counted:false "int vs float compare" expect (rel db "low")

let deep_strata_chain () =
  (* 8 strata of alternating join/negation *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "v1(X, Y) :- link(X, Y).\n";
  for k = 2 to 8 do
    if k mod 2 = 0 then
      Buffer.add_string buf
        (Printf.sprintf "v%d(X, Y) :- v%d(X, Z), link(Z, Y).\n" k (k - 1))
    else
      Buffer.add_string buf
        (Printf.sprintf "v%d(X, Y) :- v%d(X, Y), not v%d(Y, X).\n" k (k - 1) (k - 1))
  done;
  Buffer.add_string buf "link(a,b). link(b,c). link(c,d). link(d,e). link(e,f).\n";
  Buffer.add_string buf "link(f,g). link(g,h). link(h,i).\n";
  let db = db_of_source (Buffer.contents buf) in
  Alcotest.(check int) "v8 stratum" 8 (Program.stratum (Database.program db) "v8");
  (* maintenance through all 8 strata stays exact *)
  let changes =
    Ivm.Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "d"; "e" ] ]
  in
  let oracle = Database.copy db in
  List.iter
    (fun (pred, delta) ->
      let stored = Database.relation oracle pred in
      Relation.iter (fun tup c -> Relation.add stored tup c) delta)
    (Ivm.Changes.normalize_base oracle changes);
  Seminaive.evaluate oracle;
  ignore (Ivm.Counting.maintain db changes);
  for k = 1 to 8 do
    let p = Printf.sprintf "v%d" k in
    check_rel (p ^ " exact") (rel oracle p) (rel db p)
  done

let empty_base_relations () =
  let db =
    db_of_source ~extra_base:[ ("link", 2) ]
      "hop(X, Y) :- link(X, Z), link(Z, Y)."
  in
  Alcotest.(check int) "empty view" 0 (Relation.cardinal (rel db "hop"));
  (* maintenance on a fully empty database *)
  ignore
    (Ivm.Counting.maintain db
       (Ivm.Changes.insertions (Database.program db) "link"
          [ Tuple.of_strs [ "a"; "b" ]; Tuple.of_strs [ "b"; "c" ] ]));
  check_rel ~counted:false "view appears" (rel_of_pairs "ac") (rel db "hop")

let negation_of_empty () =
  let db =
    db_of_source ~extra_base:[ ("blocked", 2) ]
      {|
        open_link(X, Y) :- link(X, Y), not blocked(X, Y).
        link(a,b). link(b,c).
      |}
  in
  check_rel ~counted:false "nothing blocked" (rel_of_pairs "ab; bc")
    (rel db "open_link")

let duplicate_rules_accumulate () =
  (* the same rule twice doubles every count under duplicate semantics *)
  let db =
    db_of_source ~semantics:Database.Duplicate_semantics
      {|
        r(X, Y) :- link(X, Y).
        r(X, Y) :- link(X, Y).
        link(a,b).
      |}
  in
  check_rel "two derivations" (rel_of_pairs "ab 2") (rel db "r")

let wide_tuples () =
  let db =
    db_of_source
      {|
        wide(A, B, C, D, E, F) :- t(A, B, C), t(D, E, F).
        proj(A, F) :- wide(A, B, C, D, E, F).
        t(1, 2, 3). t(4, 5, 6).
      |}
  in
  Alcotest.(check int) "4 wide tuples" 4 (Relation.cardinal (rel db "wide"));
  Alcotest.(check bool) "projection" true
    (Relation.mem (rel db "proj") (Tuple.of_ints [ 1; 6 ]))

(* ------------------------------------------------------------------ *)
(* Membership-only subgoals (Rule_eval.Filter_present)                  *)
(* ------------------------------------------------------------------ *)

module Rule_eval = Ivm_eval.Rule_eval
module Stats = Ivm_eval.Stats

let str_rel arity rows = Relation.of_tuples arity (List.map Tuple.of_strs rows)

(* Evaluate [rule] over [rels], one relation per body position, passing
   position [filter] as [Filter_present] when [present] and as
   [Enumerate] with the set clamp otherwise; returns the emitted relation
   and the probes spent. *)
let eval_with ?seed rule rels ~filter present =
  let cr = Ivm_eval.Compile.compile (Ivm_datalog.Parser.parse_rule rule) in
  let out = Relation.create (Array.length cr.chead) in
  let inputs j =
    let v = Relation_view.concrete (List.nth rels j) in
    if j <> filter then Rule_eval.Enumerate (v, Rule_eval.identity_count)
    else if present then Rule_eval.Filter_present v
    else Rule_eval.Enumerate (v, Rule_eval.set_count)
  in
  let (), work =
    Stats.measure (fun () ->
        Rule_eval.eval ?seed ~inputs ~emit:(fun t c -> Relation.add out t c) cr)
  in
  (out, work.Stats.snap_probes)

(* A seeded delta rule shaped like DRed's frontier rederivation: the
   seed binds X and Z, so [p] (the smaller input, bound on X) and [link]
   (bound on Z) tie on boundness and the tie goes to [p].  As a filter,
   [p] is probed once per [link] match instead. *)
let filter_present_matches_enumerate () =
  let rule = "r(X, Y) :- p(X, Y), d(X, Z), link(Z, Y)." in
  let p = str_rel 2 [ [ "a"; "y1" ]; [ "a"; "y3" ]; [ "a"; "y4" ]; [ "a"; "y5" ]; [ "b"; "y2" ] ] in
  let d = str_rel 2 [ [ "a"; "z" ]; [ "b"; "z" ] ] in
  let link =
    str_rel 2
      ([ [ "z"; "y1" ]; [ "z"; "y2" ] ]
      @ List.init 10 (fun i -> [ "w"; Printf.sprintf "v%d" i ]))
  in
  let rels = [ p; d; link ] in
  let enum_out, enum_probes = eval_with ~seed:1 rule rels ~filter:0 false in
  let filt_out, filt_probes = eval_with ~seed:1 rule rels ~filter:0 true in
  check_rel "same derivations" enum_out filt_out;
  check_rel ~counted:false "expected heads" (str_rel 2 [ [ "a"; "y1" ]; [ "b"; "y2" ] ])
    filt_out;
  Alcotest.(check bool)
    (Printf.sprintf "filter probes %d <= enumerate probes %d" filt_probes enum_probes)
    true (filt_probes <= enum_probes);
  (* seed d: 1 probe; per binding, link by Z: 2 probes; each of the 4
     link matches one membership test *)
  Alcotest.(check int) "filter plan probes" (1 + 2 + 4) filt_probes

(* Unseeded, the filter's one-row view is the smallest input, yet the
   plan drives from [link] and tests each match against it. *)
let filter_present_never_drives () =
  let rule = "r(X, Y) :- p(X, Y), link(X, Y)." in
  let p = str_rel 2 [ [ "a"; "b" ] ] in
  let link = str_rel 2 [ [ "a"; "b" ]; [ "a"; "c" ]; [ "b"; "c" ]; [ "c"; "d" ] ] in
  let enum_out, enum_probes = eval_with rule [ p; link ] ~filter:0 false in
  let filt_out, filt_probes = eval_with rule [ p; link ] ~filter:0 true in
  check_rel "same derivations" enum_out filt_out;
  Alcotest.(check int) "enumerate drives from the smaller p" (1 + 1) enum_probes;
  Alcotest.(check int) "filter: one scan of link, one test per row" (1 + 4) filt_probes;
  (* an empty filter view short-circuits like an empty enumerable one *)
  let empty_out, empty_probes = eval_with rule [ Relation.create 2; link ] ~filter:0 true in
  Alcotest.(check int) "empty filter: nothing emitted" 0 (Relation.cardinal empty_out);
  Alcotest.(check int) "empty filter: no probe" 0 empty_probes

let filter_present_unbindable () =
  let rule = "r(X) :- p(X, Y), q(X)." in
  let rels = [ str_rel 2 [ [ "a"; "b" ] ]; str_rel 1 [ [ "a" ] ] ] in
  match eval_with rule rels ~filter:0 true with
  | _ -> Alcotest.fail "expected Plan_error: Y is bound by no literal"
  | exception Rule_eval.Plan_error _ -> ()


(* ---------------- allocation guards ---------------- *)

(* The apply path's per-tuple work allocates only what it keeps.  A probe
   through a resolved index allocates nothing but its key (a one-column
   key here: array and box, 5 words); a delta-rule derivation allocates
   its head tuple (array and box, 6 words at arity 2) and the buffer
   entry it lands in (5 words), plus its share of the probe keys and of
   the per-evaluation plan.  Measured: 5.0 words per probe and 12.25 per
   derivation; each bound leaves 10% slack.  Nested [Hashtbl] indexes
   took 16 words per probe, the option binding 36.5 per derivation. *)
let probe_allocation_guard () =
  let r = Relation.create 2 in
  for i = 0 to 4095 do
    Relation.add r (Tuple.of_ints [ i mod 64; i ]) 1
  done;
  let h = Relation.probe_handle r [| 0 |] and keys = Array.init 64 Value.int in
  let seen = ref 0 in
  let count _ c = seen := !seen + c in
  let (), words =
    allocated_words (fun () ->
        for k = 0 to 999 do
          Relation.probe_via h (Tuple.make [| keys.(k land 63) |]) count
        done)
  in
  Alcotest.(check int) "every probe enumerates its group" (1000 * 64) !seen;
  if words > 5500. then Alcotest.failf "1,000 index probes allocated %.0f words (limit 5500)" words

let derivation_allocation_guard () =
  let link = Relation.create 2 and delta = Relation.create 2 in
  for i = 0 to 4095 do
    Relation.add link (Tuple.of_ints [ i mod 512; i ]) 1
  done;
  for i = 0 to 63 do
    Relation.add delta (Tuple.of_ints [ 10_000 + i; i * 7 ]) 1
  done;
  let cr =
    Ivm_eval.Compile.compile
      (Ivm_datalog.Parser.parse_rule "hop(X, Y) :- link(X, Z), link(Z, Y).")
  in
  let inputs j =
    Rule_eval.Enumerate
      (Relation_view.concrete (if j = 0 then delta else link), Rule_eval.identity_count)
  in
  (* the index on [link] and a buffer that never resizes, outside the
     measurement *)
  ignore (Relation.probe_handle link [| 0 |]);
  let out = Relation.create ~size:1024 2 in
  let emit t c = Relation.add out t c in
  let (), words = allocated_words (fun () -> Rule_eval.eval ~seed:0 ~inputs ~emit cr) in
  let derivations = Relation.cardinal out in
  Alcotest.(check int) "one derivation per link pair" 512 derivations;
  let per = words /. float_of_int derivations in
  if per > 13.5 then
    Alcotest.failf "a delta-rule derivation allocated %.2f words (limit 13.5)" per

let suite =
  [
    quick "self joins and repeated variables" self_join_repeated_vars;
    quick "repeated head variables" repeated_head_vars;
    quick "constants in body atoms" constants_in_body;
    quick "float arithmetic and AVG" float_arithmetic;
    quick "division by zero surfaces" division_by_zero_surfaces;
    quick "cross-type comparisons" cross_type_comparisons;
    quick "deep strata chain maintained exactly" deep_strata_chain;
    quick "empty base relations" empty_base_relations;
    quick "negation over an empty relation" negation_of_empty;
    quick "duplicate rules accumulate counts" duplicate_rules_accumulate;
    quick "wide tuples and projections" wide_tuples;
    quick "Filter_present emits what Enumerate emits, probing no more"
      filter_present_matches_enumerate;
    quick "Filter_present is never the join driver" filter_present_never_drives;
    quick "unbindable Filter_present raises Plan_error" filter_present_unbindable;
    quick "allocation guard: 1,000 index probes allocate their keys only"
      probe_allocation_guard;
    quick "allocation guard: a derivation allocates its head and buffer entry"
      derivation_allocation_guard;
  ]
